type t = {
  name : string;
  active : round:int -> edge:int -> bool;
  (* Batch form: write the indices of the active edges among [0, m)
     into the buffer prefix in strictly increasing order and return
     their count.  Semantically redundant with [active]; kept separate
     so schedulers whose expected active set is much smaller than m can
     emit it directly instead of resolving every edge. *)
  fill_sparse : round:int -> m:int -> int array -> int;
  (* Whether [fill_sparse] does work proportional to the emitted set
     (true) or resolves every one of the m edges per round (false).
     Drives the [scheduler.edges_resolved] observability counter. *)
  sparse_native : bool;
}

let name t = t.name
let active t = t.active
let resolves_sparsely t = t.sparse_native

let sparse_of_active active ~round ~m buf =
  if Array.length buf < m then
    invalid_arg "Scheduler.fill_active_sparse: buffer shorter than m";
  let k = ref 0 in
  for e = 0 to m - 1 do
    if active ~round ~edge:e then begin
      Array.unsafe_set buf !k e;
      incr k
    end
  done;
  !k

let fill_active_sparse t ~round ~m buf =
  if m < 0 then invalid_arg "Scheduler.fill_active_sparse: negative m";
  if Array.length buf < m then
    invalid_arg "Scheduler.fill_active_sparse: buffer shorter than m";
  t.fill_sparse ~round ~m buf

let make ~name active =
  {
    name;
    active;
    fill_sparse = sparse_of_active active;
    sparse_native = false;
  }

let sparse_all ~m buf =
  for e = 0 to m - 1 do
    Array.unsafe_set buf e e
  done;
  m

let constant_sparse on ~round:_ ~m buf = if on then sparse_all ~m buf else 0

let reliable_only =
  {
    name = "reliable-only";
    active = (fun ~round:_ ~edge:_ -> false);
    fill_sparse = constant_sparse false;
    sparse_native = true;
  }

let all_edges =
  {
    name = "all-edges";
    active = (fun ~round:_ ~edge:_ -> true);
    fill_sparse = constant_sparse true;
    sparse_native = true;
  }

let bernoulli ~seed ~p =
  (* Scale 53 hash bits into [0, 1) and compare against [p], exactly
     mirroring Rng.float / Rng.bernoulli. *)
  let[@inline] active ~round ~edge =
    let h = Prng.Rng.round_hash ~round ~salt:((edge * 2654435761) + seed) in
    float_of_int h /. 9007199254740992.0 < p
  in
  let fill_sparse ~round ~m buf =
    let k = ref 0 in
    for edge = 0 to m - 1 do
      if active ~round ~edge then begin
        Array.unsafe_set buf !k edge;
        incr k
      end
    done;
    !k
  in
  { name = Printf.sprintf "bernoulli(p=%.2f)" p; active; fill_sparse;
    sparse_native = false }

(* [bernoulli_sparse] draws each round's active set by geometric skip
   sampling over the edge indices: successive gaps between active edges
   are i.i.d. Geometric(p), so the emitted set is a Bernoulli(p) process
   over [0, m) — per-edge marginal p, per-round count Binomial(m, p),
   edges independent — without ever touching an inactive edge.  (This is
   the standard equivalent of sampling the count Binomial(m, p) and then
   placing it uniformly; the two-sample tests in the suite check both
   marginals against the dense [bernoulli].)  The per-round draw stream
   is its own SplitMix generator seeded from (seed, round), so the
   scheduler stays oblivious: the set is a pure function of the round.

   [active] must agree edge-by-edge with the emitted set, but the set is
   sampled jointly, so membership queries replay the same walk.  A
   one-round memo keeps that cheap for the engine's query patterns
   (ascending rounds, with the reference resolver probing one round
   many times); the memo makes a [t] unsafe to share across domains, which
   matches the existing per-trial ownership discipline. *)
let bernoulli_sparse ~seed ~p =
  let round_stream round = Prng.Rng.round_stream ~round ~salt:seed in
  let log1mp = if p < 1.0 then Float.log1p (-.p) else Float.neg_infinity in
  (* Number of inactive edges before the next active one; [max_int] when
     the next active edge certainly lies beyond any index representable
     in the caller's range. *)
  let draw_gap g =
    let u = float_of_int (Prng.Rng.bits g 53) /. 9007199254740992.0 in
    let gf = Float.floor (Float.log1p (-.u) /. log1mp) in
    if gf >= 4.611686018427387904e18 (* 2^62: past any edge index *) then max_int
    else int_of_float gf
  in
  if p <= 0.0 then
    { reliable_only with name = Printf.sprintf "bernoulli-sparse(p=%.2f)" p }
  else if p >= 1.0 then
    { all_edges with name = Printf.sprintf "bernoulli-sparse(p=%.2f)" p }
  else begin
    let fill_sparse ~round ~m buf =
      let g = round_stream round in
      let k = ref 0 in
      let pos = ref (-1) in
      let running = ref true in
      while !running do
        let gap = draw_gap g in
        if gap >= m - !pos - 1 then running := false
        else begin
          pos := !pos + 1 + gap;
          Array.unsafe_set buf !k !pos;
          incr k
        end
      done;
      !k
    in
    (* One-round memo for membership queries: the decided prefix of the
       walk, extended lazily as larger edge indices are probed. *)
    let memo_round = ref (-1) in
    let memo_gen = ref (round_stream 0) in
    let memo_frontier = ref (-1) in
    let memo_hits = Hashtbl.create 64 in
    let active ~round ~edge =
      if !memo_round <> round then begin
        memo_round := round;
        memo_gen := round_stream round;
        memo_frontier := -1;
        Hashtbl.reset memo_hits
      end;
      while !memo_frontier < edge do
        let gap = draw_gap !memo_gen in
        let s = !memo_frontier + 1 + gap in
        if gap = max_int || s < 0 (* overflow *) then memo_frontier := max_int
        else begin
          Hashtbl.replace memo_hits s ();
          memo_frontier := s
        end
      done;
      Hashtbl.mem memo_hits edge
    in
    {
      name = Printf.sprintf "bernoulli-sparse(p=%.2f)" p;
      active;
      fill_sparse;
      sparse_native = true;
    }
  end

let flicker ~period ~duty =
  if period <= 0 || duty < 0 || duty > period then
    invalid_arg "Scheduler.flicker: need 0 <= duty <= period, period > 0";
  let on round = round mod period < duty in
  {
    name = Printf.sprintf "flicker(%d/%d)" duty period;
    active = (fun ~round ~edge:_ -> on round);
    fill_sparse = (fun ~round ~m buf -> constant_sparse (on round) ~round ~m buf);
    sparse_native = true;
  }

let edge_phase_flicker ~period =
  if period <= 0 then invalid_arg "Scheduler.edge_phase_flicker: period > 0";
  let active ~round ~edge = round mod period = edge mod period in
  {
    name = Printf.sprintf "edge-phase(%d)" period;
    active;
    fill_sparse =
      (fun ~round ~m buf ->
        let k = ref 0 in
        let e = ref (round mod period) in
        while !e < m do
          Array.unsafe_set buf !k !e;
          incr k;
          e := !e + period
        done;
        !k);
    sparse_native = true;
  }

let thwart ~hot =
  {
    name = "thwart";
    active = (fun ~round ~edge:_ -> hot round);
    fill_sparse = (fun ~round ~m buf -> constant_sparse (hot round) ~round ~m buf);
    sparse_native = true;
  }

let pp ppf t = Format.pp_print_string ppf t.name
