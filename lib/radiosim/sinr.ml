module Emb = Dualgraph.Embedding
module Grid = Dualgraph.Grid

(* Two co-located points would yield infinite received power; clamp the
   squared distance so the math stays finite (the clamp is far below any
   inter-node distance a generator produces). *)
let min_d2 = 1e-12

type t = {
  n : int;
  px : float array;
  py : float array;
  col : int array;  (* node -> grid column, fixed at creation *)
  ncols : int;
  near : int;
  power : float;
  beta : float;
  noise : float;
  jam : float;
  neg_half_alpha : float;
  pw_far : float array;
      (* pw_far.(d): power of one transmitter at the center of a column
         d columns away, i.e. power / (d * cell)^alpha; index 0 unused *)
  (* per-column listener CSR, fixed at creation: the nodes of column c
     occupy slots [slot_off.(c) .. slot_off.(c+1) - 1] of slot_node,
     ascending by id within a column.  This is the same (column, id)
     order Tile ranks vertices by, so a tile's members are a contiguous
     slot range of it — what lets the tiled engine partition the round's
     reception work by slots without consulting the tiling. *)
  slot_off : int array;  (* length ncols + 1 *)
  slot_node : int array;  (* length n, column-major, ascending per column *)
  (* per-round state, rebuilt by load_round *)
  cnt : int array;  (* transmitters per column *)
  off : int array;  (* CSR offsets into col_tx, length ncols + 1 *)
  fill : int array;  (* placement cursor during the counting sort *)
  col_tx : int array;  (* transmitter ids, column-major, ascending per column *)
  far : float array;  (* far-field interference seen from each column *)
  occ : int array;  (* occupied columns (cnt > 0), ascending *)
  mutable nocc : int;
  act : int array;  (* active columns (within near of an occupied), ascending *)
  mutable nact : int;
  act_mark : Bytes.t;  (* per-column activation byte, mirrors act *)
  mutable off_checked : bool;  (* one-time load_round sanity assert fired *)
  (* batched-scan scratch, indexed by slot.  Disjoint slot ranges touch
     disjoint entries, so concurrent tiles share one t race-free. *)
  s_lx : float array;  (* listener x, gathered once per scan_slots call *)
  s_ly : float array;
  s_best : int array;  (* strongest in-band transmitter, -1 if none *)
  s_best_pw : float array;
  s_sum : float array;  (* exact near-band power sum *)
}

let create ~params dual =
  let p : Reception.sinr = params in
  let emb =
    match Dualgraph.Dual.embedding dual with
    | Some e -> e
    | None ->
        invalid_arg
          "Sinr.create: the SINR reception model needs a Euclidean embedding \
           (this topology has none)"
  in
  let n = Emb.n emb in
  let px = Array.make (max n 1) 0.0 and py = Array.make (max n 1) 0.0 in
  for v = 0 to n - 1 do
    let pt = Emb.point emb v in
    px.(v) <- pt.Emb.x;
    py.(v) <- pt.Emb.y
  done;
  (* Bucket at the Tile stripe granularity: grid columns of side
     max r 1.  The column partition is a property of the topology alone,
     never of the runtime tile count — that is what keeps the far-field
     aggregate, the activation set (and so every trace) tiling-invariant. *)
  let cell = Float.max (Dualgraph.Dual.r dual) 1.0 in
  let grid = Grid.create ~cell emb in
  let ncols = Grid.cols grid in
  let col = Array.make (max n 1) 0 in
  for v = 0 to n - 1 do
    col.(v) <- Grid.cell_index grid v mod ncols
  done;
  let pw_far = Array.make (max ncols 1) 0.0 in
  for d = 1 to ncols - 1 do
    pw_far.(d) <- p.Reception.power *. ((float_of_int d *. cell) ** -.p.Reception.alpha)
  done;
  (* Counting sort of all nodes by column: the listener CSR. *)
  let slot_off = Array.make (ncols + 1) 0 in
  for v = 0 to n - 1 do
    slot_off.(col.(v) + 1) <- slot_off.(col.(v) + 1) + 1
  done;
  for c = 1 to ncols do
    slot_off.(c) <- slot_off.(c) + slot_off.(c - 1)
  done;
  let slot_node = Array.make (max n 1) 0 in
  let cursor = Array.copy slot_off in
  for v = 0 to n - 1 do
    let c = col.(v) in
    slot_node.(cursor.(c)) <- v;
    cursor.(c) <- cursor.(c) + 1
  done;
  {
    n;
    px;
    py;
    col;
    ncols;
    near = p.Reception.near;
    power = p.Reception.power;
    beta = p.Reception.beta;
    noise = p.Reception.noise;
    jam = p.Reception.jam;
    neg_half_alpha = -.p.Reception.alpha /. 2.0;
    pw_far;
    slot_off;
    slot_node;
    cnt = Array.make ncols 0;
    off = Array.make (ncols + 1) 0;
    fill = Array.make ncols 0;
    col_tx = Array.make (max n 1) 0;
    far = Array.make ncols 0.0;
    occ = Array.make ncols 0;
    nocc = 0;
    act = Array.make ncols 0;
    nact = 0;
    act_mark = Bytes.make ncols '\000';
    off_checked = false;
    s_lx = Array.make (max n 1) 0.0;
    s_ly = Array.make (max n 1) 0.0;
    s_best = Array.make (max n 1) (-1);
    s_best_pw = Array.make (max n 1) 0.0;
    s_sum = Array.make (max n 1) 0.0;
  }

let cols t = t.ncols
let column_of t v = t.col.(v)
let slot_off t = t.slot_off
let slot_node t = t.slot_node
let active_columns t = (t.act, t.nact)
let column_active t c = Bytes.unsafe_get t.act_mark c = '\001'

(* The one-time sanity check that stands in for the per-read bounds
   checks the scan loops no longer pay: the CSR offsets must be monotone
   and cover exactly the loaded transmitters. *)
let off_monotone t ~count =
  let ok = ref (t.off.(0) = 0 && t.off.(t.ncols) = count) in
  for c = 0 to t.ncols - 1 do
    if t.off.(c + 1) < t.off.(c) then ok := false
  done;
  !ok

let load_round t ~transmitters ~count =
  if count < 0 || count > t.n then invalid_arg "Sinr.load_round: bad count";
  let cnt = t.cnt and off = t.off and fill = t.fill in
  Array.fill cnt 0 t.ncols 0;
  for i = 0 to count - 1 do
    let c = Array.unsafe_get t.col (Array.unsafe_get transmitters i) in
    Array.unsafe_set cnt c (Array.unsafe_get cnt c + 1)
  done;
  off.(0) <- 0;
  for c = 0 to t.ncols - 1 do
    off.(c + 1) <- off.(c) + cnt.(c);
    fill.(c) <- off.(c)
  done;
  assert (
    t.off_checked
    ||
    (t.off_checked <- true;
     off_monotone t ~count));
  (* Stable counting sort: the input is ascending by id, so each
     column's slice comes out ascending by id too — the canonical
     accumulation order the scans rely on. *)
  for i = 0 to count - 1 do
    let w = Array.unsafe_get transmitters i in
    let c = Array.unsafe_get t.col w in
    Array.unsafe_set t.col_tx (Array.unsafe_get fill c) w;
    Array.unsafe_set fill c (Array.unsafe_get fill c + 1)
  done;
  (* Occupied columns, ascending. *)
  let nocc = ref 0 in
  for c = 0 to t.ncols - 1 do
    if Array.unsafe_get cnt c > 0 then begin
      Array.unsafe_set t.occ !nocc c;
      incr nocc
    end
  done;
  t.nocc <- !nocc;
  (* Far-field table: column i sees count_j transmitters at column-center
     distance |i - j| * cell for every column beyond the near band.
     Only occupied columns contribute — a column with cnt = 0 adds
     0.0 · pw_far = +0.0, and the accumulator starts at +0.0 and only
     ever adds non-negative finite terms (power > 0 keeps pw_far free of
     NaN), so x +. 0.0 = x bit for bit and skipping the zero terms
     leaves every partial sum unchanged.  O(K·cols) per round for K
     occupied columns, against the dense O(cols²). *)
  for i = 0 to t.ncols - 1 do
    let s = ref 0.0 in
    for k = 0 to !nocc - 1 do
      let j = Array.unsafe_get t.occ k in
      let d = abs (j - i) in
      if d > t.near then
        s := !s +. (float_of_int (Array.unsafe_get cnt j) *. Array.unsafe_get t.pw_far d)
    done;
    Array.unsafe_set t.far i !s
  done;
  (* Active columns: the union of [c - near, c + near] over the occupied
     columns, merged ascending (occ is ascending, so a single cursor
     dedups the overlapping windows).  A listener outside every window
     has no in-band transmitter — its scan would find nothing and its
     verdict would be -1 — so the engine skips it wholesale. *)
  for i = 0 to t.nact - 1 do
    Bytes.unsafe_set t.act_mark (Array.unsafe_get t.act i) '\000'
  done;
  let nact = ref 0 and next = ref 0 in
  for k = 0 to !nocc - 1 do
    let c = Array.unsafe_get t.occ k in
    let lo = max !next (c - t.near) and hi = min (t.ncols - 1) (c + t.near) in
    for j = lo to hi do
      Array.unsafe_set t.act !nact j;
      Bytes.unsafe_set t.act_mark j '\001';
      incr nact
    done;
    if hi >= !next then next := hi + 1
  done;
  t.nact <- !nact

(* Kernel 3: the batched per-column scan.  One pass over each in-band
   transmitter slice serves every listener of the column at once — the
   loop interchange keeps each listener's accumulation sequence exactly
   the per-listener reference scan's (band columns ascending, ids
   ascending within a column, strict-> tie-break), so sums and
   candidates are bit-identical.
   Transmitting or dead nodes inside the range are scanned too (their
   scratch is simply never read back); the few wasted lanes cost less
   than branching per (transmitter, listener) pair. *)
let scan_slots t ~column ~lo ~hi =
  if lo < hi then begin
    let s_lx = t.s_lx
    and s_ly = t.s_ly
    and s_best = t.s_best
    and s_best_pw = t.s_best_pw
    and s_sum = t.s_sum in
    for s = lo to hi - 1 do
      let u = Array.unsafe_get t.slot_node s in
      Array.unsafe_set s_lx s (Array.unsafe_get t.px u);
      Array.unsafe_set s_ly s (Array.unsafe_get t.py u);
      Array.unsafe_set s_best s (-1);
      Array.unsafe_set s_best_pw s 0.0;
      Array.unsafe_set s_sum s 0.0
    done;
    let clo = max 0 (column - t.near)
    and chi = min (t.ncols - 1) (column + t.near) in
    for c = clo to chi do
      for idx = Array.unsafe_get t.off c to Array.unsafe_get t.off (c + 1) - 1 do
        let w = Array.unsafe_get t.col_tx idx in
        let wx = Array.unsafe_get t.px w and wy = Array.unsafe_get t.py w in
        for s = lo to hi - 1 do
          let dx = wx -. Array.unsafe_get s_lx s
          and dy = wy -. Array.unsafe_get s_ly s in
          let d2 = Float.max ((dx *. dx) +. (dy *. dy)) min_d2 in
          let pw = t.power *. (d2 ** t.neg_half_alpha) in
          Array.unsafe_set s_sum s (Array.unsafe_get s_sum s +. pw);
          if pw > Array.unsafe_get s_best_pw s then begin
            Array.unsafe_set s_best_pw s pw;
            Array.unsafe_set s_best s w
          end
        done
      done
    done
  end

let verdict t ~jammed ~slot =
  let best = Array.unsafe_get t.s_best slot in
  if best < 0 then -1
  else begin
    let best_pw = Array.unsafe_get t.s_best_pw slot in
    let cx = Array.unsafe_get t.col (Array.unsafe_get t.slot_node slot) in
    let floor = t.noise +. (if jammed then t.jam else 0.0) in
    let interference =
      Array.unsafe_get t.s_sum slot -. best_pw
      +. Array.unsafe_get t.far cx +. floor
    in
    if best_pw >= t.beta *. interference then best else -2
  end
