type ci = { mean : float; lower : float; upper : float }

let mean_of samples =
  let sum = Array.fold_left ( +. ) 0.0 samples in
  sum /. float_of_int (Array.length samples)

let check_samples ~who samples =
  if Array.length samples = 0 then invalid_arg (who ^ ": empty samples");
  Array.iter
    (fun x -> if Float.is_nan x then invalid_arg (who ^ ": NaN sample"))
    samples

let bootstrap ?(replicates = 1000) ?(confidence = 0.95) ~seed samples =
  check_samples ~who:"Rank.bootstrap" samples;
  if replicates < 1 then invalid_arg "Rank.bootstrap: replicates must be >= 1";
  if
    Float.is_nan confidence || confidence <= 0.0 || confidence >= 1.0
  then invalid_arg "Rank.bootstrap: confidence must be in (0, 1)";
  let n = Array.length samples in
  let mean = mean_of samples in
  let degenerate =
    n = 1 || Array.for_all (fun x -> x = samples.(0)) samples
  in
  if degenerate then { mean; lower = mean; upper = mean }
  else begin
    let rng = Prng.Rng.create (Prng.Rng.mix (Int64.of_int seed)) in
    let means =
      Array.init replicates (fun _ ->
          let sum = ref 0.0 in
          for _ = 1 to n do
            sum := !sum +. samples.(Prng.Rng.int rng n)
          done;
          !sum /. float_of_int n)
    in
    Array.sort Float.compare means;
    let tail = (1.0 -. confidence) /. 2.0 in
    let lower = Summary.percentile means tail in
    let upper = Summary.percentile means (1.0 -. tail) in
    (* The point estimate is the sample mean, not the resampled one; a
       small resample set can land the percentile band beside it, so
       clamp the interval around the estimate. *)
    { mean; lower = Float.min lower mean; upper = Float.max upper mean }
  end

type row = { label : string; count : int; ci : ci; rank : int }

(* Per-row bootstrap stream keyed by (seed, label) so a row's interval is
   independent of which other rows share the table. *)
let label_seed ~seed label =
  let acc = ref (Int64.of_int seed) in
  String.iter
    (fun c ->
      acc :=
        Prng.Rng.mix
          (Int64.add
             (Int64.mul !acc 0x100000001B3L)
             (Int64.of_int (Char.code c))))
    label;
  Int64.to_int !acc

let table ?replicates ?confidence ?(descending = false) ?(tie_eps = 0.0) ~seed
    cells =
  if cells = [] then invalid_arg "Rank.table: empty table";
  if Float.is_nan tie_eps || tie_eps < 0.0 then
    invalid_arg "Rank.table: tie_eps must be >= 0";
  let labels = List.map fst cells in
  let sorted_labels = List.sort_uniq String.compare labels in
  if List.length sorted_labels <> List.length labels then
    invalid_arg "Rank.table: duplicate labels";
  let scored =
    List.map
      (fun (label, samples) ->
        check_samples ~who:"Rank.table" samples;
        let ci =
          bootstrap ?replicates ?confidence ~seed:(label_seed ~seed label)
            samples
        in
        (label, Array.length samples, ci))
      cells
  in
  let better a b = if descending then Float.compare b a else Float.compare a b in
  let ordered =
    List.sort
      (fun (la, _, ca) (lb, _, cb) ->
        let c = better ca.mean cb.mean in
        if c <> 0 then c else String.compare la lb)
      scored
  in
  (* Competition ("1224") ranking: a row ties the current group when its
     mean is within [tie_eps] of the group's representative (the group's
     first, i.e. best, mean). *)
  let rows, _, _, _ =
    List.fold_left
      (fun (acc, position, group_rank, group_mean) (label, count, ci) ->
        let position = position + 1 in
        let tied =
          position > 1
          && Float.abs (ci.mean -. group_mean) <= tie_eps
        in
        let group_rank = if tied then group_rank else position in
        let group_mean = if tied then group_mean else ci.mean in
        ({ label; count; ci; rank = group_rank } :: acc, position, group_rank,
         group_mean))
      ([], 0, 1, Float.nan) ordered
  in
  List.rev rows
