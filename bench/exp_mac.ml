(* Experiment E11: abstract MAC layer composition (§1, §5).  A multihop
   flood written against the MAC events completes in O(D · f_ack)-shaped
   time on dual graphs with flapping unreliable links. *)

open Core
open Exp_common
module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module Params = Localcast.Params
module Table = Stats.Table

let run () =
  section "E11: flood over the abstract MAC layer (§1, §5)";
  note
    "Line topologies with 2-hop unreliable shortcuts (r = 2); flapping\n\
     Bernoulli(1/2) scheduler.  Completion rounds normalized by hop count\n\
     and by the MAC's f_ack bound.";
  let trials = trials_scaled 5 in
  let table =
    Table.create ~title:"E11: flood completion vs network diameter"
      ~columns:
        [ "hops"; "f_ack"; "mean completion"; "rounds/hop"; "completion/(D*f_ack)";
          "coverage" ]
  in
  let sizes = if !quick then [ 3; 9 ] else [ 3; 5; 9; 17 ] in
  List.iter
    (fun n ->
      let dual = Geo.line ~n ~spacing:0.9 ~r:2.0 () in
      let params = Params.of_dual ~eps1:0.1 ~tack_phases:3 dual in
      let f_ack = Params.t_ack_rounds params in
      let hops = n - 1 in
      let samples =
        run_trials ~salt:n ~n:trials (fun ~trial:_ ~seed ->
            mac_flood ~params
              ~rng:(Prng.Rng.of_int seed)
              ~dual
              ~scheduler:(Sch.bernoulli ~seed ~p:0.5)
              ~source:0
              ~max_rounds:(50 * n * params.Params.phase_len))
      in
      let completions = ref [] and covered = ref 0 and total = ref 0 in
      List.iter
        (fun (cov, completion) ->
          covered := !covered + cov;
          total := !total + n;
          match completion with
          | Some round -> completions := float_of_int round :: !completions
          | None -> ())
        samples;
      let mean_completion =
        if !completions = [] then Float.nan else Stats.Summary.mean !completions
      in
      Table.add_row table
        [
          Table.cell_int hops;
          Table.cell_int f_ack;
          Table.cell_float ~decimals:0 mean_completion;
          Table.cell_float ~decimals:0 (mean_completion /. float_of_int hops);
          Table.cell_float ~decimals:3
            (mean_completion /. (float_of_int hops *. float_of_int f_ack));
          Printf.sprintf "%d/%d" !covered !total;
        ])
    sizes;
  Table.print table;
  note
    "Expected: full coverage; rounds/hop roughly constant (linear-in-D\n\
     shape); completion well under D * f_ack (the worst-case budget).\n"
