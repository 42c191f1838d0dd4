type process =
  | Poisson of { rate : float }
  | Bursty of { rate : float; on_mean : float; off_mean : float }
  | Hotspot of { rate : float; hot_fraction : float; hot_share : float }
  | Batch of { sources : int list }

let pp_process ppf =
  let num = Grammar.float_to_string in
  function
  | Poisson { rate } -> Format.fprintf ppf "poisson:%s" (num rate)
  | Bursty { rate; on_mean; off_mean } ->
      Format.fprintf ppf "bursty:%s:%s:%s" (num rate) (num on_mean)
        (num off_mean)
  | Hotspot { rate; hot_fraction; hot_share } ->
      Format.fprintf ppf "hotspot:%s:%s:%s" (num rate) (num hot_fraction)
        (num hot_share)
  | Batch { sources } ->
      Format.fprintf ppf "batch:%s"
        (String.concat "," (List.map string_of_int sources))

let process_to_string p = Format.asprintf "%a" pp_process p

(* Shared parameter validation: [parse] reports these as [Error]
   (clean CLI diagnostics), [create] raises [Invalid_argument].  Only
   [create] knows n, so it alone bounds batch sources above. *)
let process_error = function
  | Poisson { rate } | Bursty { rate; _ } | Hotspot { rate; _ }
    when not (Float.is_finite rate && rate >= 0.0) ->
      Some "rate must be finite and non-negative"
  | Bursty { on_mean; _ } when not (Float.is_finite on_mean && on_mean >= 1.0)
    ->
      Some "on_mean must be >= 1"
  | Bursty { off_mean; _ }
    when not (Float.is_finite off_mean && off_mean >= 1.0) ->
      Some "off_mean must be >= 1"
  | Hotspot { hot_fraction; _ }
    when not (hot_fraction >= 0.0 && hot_fraction <= 1.0) ->
      Some "hot_fraction outside [0, 1]"
  | Hotspot { hot_share; _ } when not (hot_share >= 0.0 && hot_share <= 1.0)
    ->
      Some "hot_share outside [0, 1]"
  | Batch { sources } when List.exists (fun s -> s < 0) sources ->
      Some "batch sources must be >= 0"
  | _ -> None

let parse =
  let validated p =
    match process_error p with None -> Ok p | Some msg -> Error msg
  in
  (* [k] ':'-separated numbers, handed to [make] as an array *)
  let numbers k make =
    Grammar.args (fun a ->
        Result.bind (Grammar.list ~sep:':' Grammar.float a) (fun xs ->
            if List.length xs = k then validated (make (Array.of_list xs))
            else Error (Printf.sprintf "expected %d ':'-separated numbers" k)))
  in
  Grammar.parse "workload"
    (Grammar.tags
       [
         ("poisson", numbers 1 (fun x -> Poisson { rate = x.(0) }));
         ( "bursty",
           numbers 3 (fun x -> Bursty { rate = x.(0); on_mean = x.(1); off_mean = x.(2) }) );
         ( "hotspot",
           numbers 3 (fun x ->
               Hotspot { rate = x.(0); hot_fraction = x.(1); hot_share = x.(2) }) );
         ( "batch",
           Grammar.args (fun a ->
               Result.bind (Grammar.list Grammar.int a) (fun sources ->
                   validated (Batch { sources }))) );
       ])

(* --- the draw substrate ---

   Counter-mode keying (hash of (seed, node, round, i)) is what makes
   arrival plans order-independent in the first place.  Every draw
   hashes its key with Prng.Rng's 63-bit finalizer, an int -> int
   function, so the serving loop's draws stay in native ints and
   allocate nothing. *)

let mix = Prng.Rng.mix63

(* Uniform in (0, 1]: 52 fresh mantissa bits, never exactly 0 (safe
   under log). *)
let u52 h = float_of_int ((h land 0xF_FFFF_FFFF_FFFF) + 1) *. 0x1p-52

(* Bounded Knuth sampler: Poisson(λ) given exp(-λ), capped at 64 (a
   fixed draw budget keeps the per-(node, round) cost bounded; at the
   per-node rates that matter here λ « 64 and the cap is unreachable).

   The sampler is written allocation-free for the non-flambda compiler:
   local [ref] cells and floats crossing call boundaries would each
   cost a minor allocation, so the running product p and the threshold
   exp(-λ) live in a 2-slot scratch float array (unboxed stores/loads)
   and the recursion carries only ints. *)
let max_count = 64

let round_salt = 0x9E3779B9

(* Geometric period length with the given mean (≥ 1): inverse transform
   of P(len = j) = (1-p)^(j-1) p, p = 1/mean. *)
let geometric_len ~mean u =
  if mean <= 1.0 then 1
  else begin
    let ln1p = log (1.0 -. (1.0 /. mean)) in
    let l = int_of_float (ceil (log u /. ln1p)) in
    if l < 1 then 1 else l
  end

type t = {
  process : process;
  n : int;
  base : int array;  (* per-node arrival draw channel *)
  dur_base : int array;  (* per-node period-length draw channel *)
  eneg : float array;  (* per-node exp(-λ); for bursty, the ON-state λ *)
  last : int array;  (* monotonicity check *)
  (* bursty modulator state *)
  on_state : Bytes.t;
  until : int array;  (* current period's end round (exclusive) *)
  cycle : int array;  (* next period-length draw index *)
  on_mean : float;
  off_mean : float;
  is_hot : Bytes.t;
  batch : int array;  (* per-node round-0 arrivals (Batch only) *)
  scratch : float array;  (* 0: Knuth running product; 1: exp(-λ) *)
}

let n t = t.n

let process t = t.process

let hot t ~node =
  if node < 0 || node >= t.n then invalid_arg "Workload.hot: node out of range";
  Bytes.get t.is_hot node = '\001'

let create ~process ~n ~seed () =
  if n < 1 then invalid_arg "Workload.create: need at least one node";
  (match process_error process with
  | Some msg -> invalid_arg ("Workload.create: " ^ msg)
  | None -> ());
  let batch = Array.make n 0 in
  (match process with
  | Batch { sources } ->
      List.iter
        (fun s ->
          if s >= n then invalid_arg "Workload.create: batch source out of range";
          batch.(s) <- batch.(s) + 1)
        sources
  | Poisson _ | Bursty _ | Hotspot _ -> ());
  let root = mix (seed lxor 0x517CC1B727220A95) in
  let base = Array.init n (fun v -> mix (root + ((v + 1) * 0x2545F4914F6CDD1D))) in
  let dur_base = Array.init n (fun v -> mix (base.(v) lxor 0x27220A95)) in
  let is_hot = Bytes.make n '\000' in
  (match process with
  | Hotspot { hot_fraction; _ } ->
      let hot_root = mix (root lxor 0x1B873593) in
      let threshold = int_of_float (hot_fraction *. 1048576.0) in
      for v = 0 to n - 1 do
        if mix (hot_root + v) land 0xFFFFF < threshold then
          Bytes.set is_hot v '\001'
      done;
      (* the hot set is never empty when a positive fraction was asked *)
      if hot_fraction > 0.0 then begin
        let any = ref false in
        Bytes.iter (fun c -> if c = '\001' then any := true) is_hot;
        if not !any then Bytes.set is_hot (mix hot_root mod n) '\001'
      end
  | Poisson _ | Bursty _ | Batch _ -> ());
  let lam v =
    match process with
    | Poisson { rate } -> rate /. float_of_int n
    | Bursty { rate; on_mean; off_mean } ->
        (* ON-state rate, scaled so the time average is rate/n *)
        rate /. float_of_int n *. ((on_mean +. off_mean) /. on_mean)
    | Hotspot { rate; hot_fraction = _; hot_share } ->
        let hot_count = ref 0 in
        Bytes.iter (fun c -> if c = '\001' then incr hot_count) is_hot;
        let hot_count = !hot_count in
        let cold_count = n - hot_count in
        if hot_count = 0 then rate /. float_of_int n
        else if cold_count = 0 then rate /. float_of_int n
        else if Bytes.get is_hot v = '\001' then
          rate *. hot_share /. float_of_int hot_count
        else rate *. (1.0 -. hot_share) /. float_of_int cold_count
    | Batch _ -> 0.0
  in
  let eneg = Array.init n (fun v -> exp (-.lam v)) in
  let on_mean, off_mean =
    match process with
    | Bursty { on_mean; off_mean; _ } -> (on_mean, off_mean)
    | Poisson _ | Hotspot _ | Batch _ -> (1.0, 1.0)
  in
  let on_state = Bytes.make n '\000' in
  let until = Array.make n 0 in
  let cycle = Array.make n 1 in
  (match process with
  | Bursty _ ->
      (* draw 0 picks the initial phase (stationary-ish split), draw 1
         its length *)
      for v = 0 to n - 1 do
        let u0 = u52 (mix (dur_base.(v) + 0)) in
        let on = u0 <= on_mean /. (on_mean +. off_mean) in
        if on then Bytes.set on_state v '\001';
        let mean = if on then on_mean else off_mean in
        until.(v) <- geometric_len ~mean (u52 (mix (dur_base.(v) + 1)));
        cycle.(v) <- 2
      done
  | Poisson _ | Hotspot _ | Batch _ -> ());
  {
    process;
    n;
    base;
    dur_base;
    eneg;
    last = Array.make n 0;
    on_state;
    until;
    cycle;
    on_mean;
    off_mean;
    is_hot;
    batch;
    scratch = Array.make 2 0.0;
  }

(* scratch.(0) > scratch.(1) is p > exp(-λ); draws k+1, k+2, ... fold in
   until the product crosses the threshold.  Int-only signature. *)
let rec knuth t base round k =
  if Array.unsafe_get t.scratch 0 > Array.unsafe_get t.scratch 1
     && k < max_count
  then begin
    let h = mix (base + (round * round_salt) + (k + 1)) in
    Array.unsafe_set t.scratch 0
      (Array.unsafe_get t.scratch 0
      *. (float_of_int ((h land 0xF_FFFF_FFFF_FFFF) + 1) *. 0x1p-52));
    knuth t base round (k + 1)
  end
  else k

let sample_poisson t ~node ~round =
  let base = Array.unsafe_get t.base node in
  let h0 = mix (base + (round * round_salt)) in
  Array.unsafe_set t.scratch 0
    (float_of_int ((h0 land 0xF_FFFF_FFFF_FFFF) + 1) *. 0x1p-52);
  Array.unsafe_set t.scratch 1 (Array.unsafe_get t.eneg node);
  knuth t base round 0

let arrivals t ~node ~round =
  if node < 0 || node >= t.n then
    invalid_arg "Workload.arrivals: node out of range";
  if round < 0 then invalid_arg "Workload.arrivals: negative round";
  if round < t.last.(node) then
    invalid_arg "Workload.arrivals: rounds must be non-decreasing per node";
  t.last.(node) <- round;
  match t.process with
  | Poisson _ | Hotspot _ -> sample_poisson t ~node ~round
  | Batch _ -> if round = 0 then Array.unsafe_get t.batch node else 0
  | Bursty _ ->
      (* catch the on/off cursor up to this round; the geometric draw is
         inlined (cf. geometric_len) so the floats stay in unboxed
         locals — this loop runs at most once per period, not per
         round *)
      while round >= Array.unsafe_get t.until node do
        let on = Bytes.unsafe_get t.on_state node = '\001' in
        let on = not on in
        Bytes.unsafe_set t.on_state node (if on then '\001' else '\000');
        let mean = if on then t.on_mean else t.off_mean in
        let c = Array.unsafe_get t.cycle node in
        let h = mix (Array.unsafe_get t.dur_base node + c) in
        let u = float_of_int ((h land 0xF_FFFF_FFFF_FFFF) + 1) *. 0x1p-52 in
        let len =
          if mean <= 1.0 then 1
          else begin
            let l =
              int_of_float (ceil (log u /. log (1.0 -. (1.0 /. mean))))
            in
            if l < 1 then 1 else l
          end
        in
        Array.unsafe_set t.until node (Array.unsafe_get t.until node + len);
        Array.unsafe_set t.cycle node (c + 1)
      done;
      if Bytes.unsafe_get t.on_state node = '\001' then
        sample_poisson t ~node ~round
      else 0
