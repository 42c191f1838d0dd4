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
  (* the embedding's grid, kept for the decode-radius range queries:
     column c's nodes in row r are entries cell_off.(b) .. cell_off.(b+1)
     - 1 of cell_ids, b = c + r·ncols, ascending by id within a cell *)
  cell : float;
  miny : float;
  rows : int;
  cell_off : int array;
  cell_ids : int array;
  two_over_alpha : float;
  prunable : bool;  (* the decode cut's guards hold (see decode_cut) *)
  (* batched-scan scratch.  A tile's slot range of a column is an id
     range of it, so disjoint slot ranges touch disjoint entries of
     both the per-slot and the per-node arrays, and concurrent tiles
     share one t race-free. *)
  within : Bytes.t;  (* per node: within a decode radius, this scan *)
  s_best : int array;
      (* strongest in-band transmitter; -1 if none, -2 if drowned unsummed *)
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
  (* the embedding's extent, for the decode cut's positivity guard;
     comparisons skip a NaN coordinate, so [numeric] records one *)
  let x0 = ref infinity and x1 = ref neg_infinity in
  let y0 = ref infinity and y1 = ref neg_infinity in
  let numeric = ref true in
  for v = 0 to n - 1 do
    let { Emb.x; y } = Emb.point emb v in
    px.(v) <- x;
    py.(v) <- y;
    if x < !x0 then x0 := x;
    if x > !x1 then x1 := x;
    if y < !y0 then y0 := y;
    if y > !y1 then y1 := y;
    if Float.is_nan x || Float.is_nan y then numeric := false
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
  (* The guards of the decode cut.  Positivity: every pair of nodes
     lies within the extent, whose squared diagonal the factor 2 keeps
     above any rounded d2 (a clamped d2 <= 1 gives at least P), so each
     in-band power is at least this bound; an infinite extent fails it.
     A NaN coordinate lies in no extent.  The alpha bound keeps the
     cut's rounding, which the power law raises to the alpha/2, far
     inside its 2^-20 margin. *)
  let prunable =
    let w = !x1 -. !x0 and h = !y1 -. !y0 in
    !numeric
    && p.Reception.alpha <= 0x1p20
    && p.Reception.power *. ((2.0 *. ((w *. w) +. (h *. h))) ** (-.p.Reception.alpha /. 2.0))
       >= Float.min_float
  in
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
    cell;
    miny = Grid.min_y grid;
    rows = Grid.rows grid;
    cell_off = Grid.cell_offsets grid;
    cell_ids = Grid.cell_ids grid;
    two_over_alpha = 2.0 /. p.Reception.alpha;
    prunable;
    within = Bytes.make (max n 1) '\000';
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

(* Kernel 4: the decode cut.  A listener's interference is
   I = ((S ⊖ b) ⊕ far_c) ⊕ floor, with S its in-band sum, b its best
   in-band power and far_c its column's far field.  Every operand is
   >= 0 (S >= b, as the sum takes b in) and rounding is monotone, so
   I >= far_c ⊕ noise whatever the jam adds to the floor, and
   b < beta ⊗ (far_c ⊕ noise) forces -2.  Received power falls with
   distance, so that holds for every listener whose in-band
   transmitters all lie beyond the column's cut: the squared distance
   at which one transmitter's power is thr = beta·(far_c + noise)
   shrunk by 2^-20, a margin that covers pow's sub-ulp error.  -2 also
   needs a candidate, some in-band power > 0.0, and the range queries
   must find every listener within the cut; [prunable] guarantees both,
   and the cut is infinite without it — as it is when noise and far_c
   are both 0, since P / 0 = inf.  An infinite cut is no special case:
   the range query then spans the column and sums every listener. *)
let[@inline] decode_cut t ~column =
  if not t.prunable then infinity
  else
    let thr =
      t.beta *. (Array.unsafe_get t.far column +. t.noise) *. (1.0 -. 0x1p-20)
    in
    (t.power /. thr) ** t.two_over_alpha

(* Kernels 3 and 4: the batched per-column scan.  First each in-band
   transmitter's range query over the grid marks the listeners of the
   slot range within the column's decode cut ([within]); then each
   marked listener sums its in-band power exactly as the per-listener
   reference scan does (band columns ascending, ids ascending within a
   column — one contiguous slice of col_tx — and the strict-> tie-break),
   so its sum and candidate are bit-identical, while every other
   listener is answered from the band alone: -2 if it holds a
   transmitter, -1 if not.  The query widens its rows by one on each
   side, which absorbs the rounding of the row arithmetic, and clamps
   them in float first: int_of_float of an infinite or NaN bound is
   not a row.  A NaN distance fails [d2 > cut] and is summed. *)
let scan_slots t ~column ~lo ~hi =
  if lo < hi then begin
    let slot_node = t.slot_node and within = t.within in
    let px = t.px and py = t.py and col_tx = t.col_tx in
    let cell_off = t.cell_off and cell_ids = t.cell_ids in
    let ncols = t.ncols and rows = t.rows in
    let blo = Array.unsafe_get t.off (max 0 (column - t.near))
    and bhi = Array.unsafe_get t.off (min (ncols - 1) (column + t.near) + 1) in
    (* the slot range's listeners are the column's ids in [ulo, uhi] *)
    let ulo = Array.unsafe_get slot_node lo and uhi = Array.unsafe_get slot_node (hi - 1) in
    let cut = decode_cut t ~column in
    let cell = t.cell and miny = t.miny in
    let rad = Float.sqrt cut /. cell and last_row = float_of_int (rows - 1) in
    for idx = blo to bhi - 1 do
      let w = Array.unsafe_get col_tx idx in
      let wx = Array.unsafe_get px w and wy = Array.unsafe_get py w in
      (* the grid's own row arithmetic, in float, then the radius *)
      let yr = (wy -. miny) /. cell in
      let f0 = yr -. rad -. 1.0 and f1 = yr +. rad +. 1.0 in
      let r0 = if f0 > 0.0 then if f0 < last_row then int_of_float f0 else rows - 1 else 0
      and r1 = if f1 < last_row then if f1 > 0.0 then int_of_float f1 else 0 else rows - 1 in
      for row = r0 to r1 do
        let b = column + (row * ncols) in
        for i = Array.unsafe_get cell_off b to Array.unsafe_get cell_off (b + 1) - 1 do
          let u = Array.unsafe_get cell_ids i in
          if u >= ulo && u <= uhi && Bytes.unsafe_get within u = '\000' then begin
            let dx = wx -. Array.unsafe_get px u and dy = wy -. Array.unsafe_get py u in
            if not ((dx *. dx) +. (dy *. dy) > cut) then Bytes.unsafe_set within u '\001'
          end
        done
      done
    done;
    let unsummed = if bhi > blo then -2 else -1 in
    let power = t.power and neg_half_alpha = t.neg_half_alpha in
    for s = lo to hi - 1 do
      let u = Array.unsafe_get slot_node s in
      if Bytes.unsafe_get within u = '\000' then Array.unsafe_set t.s_best s unsummed
      else begin
        Bytes.unsafe_set within u '\000';
        let ux = Array.unsafe_get px u and uy = Array.unsafe_get py u in
        let best = ref (-1) and best_pw = ref 0.0 and sum = ref 0.0 in
        for idx = blo to bhi - 1 do
          let w = Array.unsafe_get col_tx idx in
          let dx = Array.unsafe_get px w -. ux and dy = Array.unsafe_get py w -. uy in
          (* = Float.max d2 min_d2 for d2 >= +0 and for NaN, branch-cheap *)
          let d2 = (dx *. dx) +. (dy *. dy) in
          let d2 = if d2 < min_d2 then min_d2 else d2 in
          let pw = power *. (d2 ** neg_half_alpha) in
          sum := !sum +. pw;
          if pw > !best_pw then begin
            best_pw := pw;
            best := w
          end
        done;
        Array.unsafe_set t.s_best s !best;
        Array.unsafe_set t.s_best_pw s !best_pw;
        Array.unsafe_set t.s_sum s !sum
      end
    done
  end

let verdict t ~jammed ~slot =
  let best = Array.unsafe_get t.s_best slot in
  if best < 0 then best
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
