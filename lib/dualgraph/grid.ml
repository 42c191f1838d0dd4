(* Flat uniform spatial grid over an embedding, CSR-bucketed.

   Cells are square with a caller-chosen side; vertex ids within a cell
   are stored ascending, so a 3x3 neighborhood scan visits a
   concatenation of ascending runs.  Built by counting sort: two O(n)
   passes, no hashing, no per-cell list allocation. *)

type t = {
  minx : float;
  miny : float;
  cell : float;
  cols : int;
  rows : int;
  off : int array;  (* cols * rows + 1 *)
  ids : int array;  (* length n, bucketed by cell, ascending in-cell *)
  cell_of : int array;  (* vertex -> flat cell index *)
}

let create ~cell emb =
  if not (cell > 0.0) then invalid_arg "Grid.create: cell size must be positive";
  let n = Embedding.n emb in
  if n = 0 then
    {
      minx = 0.0;
      miny = 0.0;
      cell;
      cols = 1;
      rows = 1;
      off = [| 0; 0 |];
      ids = [||];
      cell_of = [||];
    }
  else begin
    let minx = ref infinity and miny = ref infinity in
    let maxx = ref neg_infinity and maxy = ref neg_infinity in
    for v = 0 to n - 1 do
      let p = Embedding.point emb v in
      if p.Embedding.x < !minx then minx := p.Embedding.x;
      if p.Embedding.x > !maxx then maxx := p.Embedding.x;
      if p.Embedding.y < !miny then miny := p.Embedding.y;
      if p.Embedding.y > !maxy then maxy := p.Embedding.y
    done;
    let minx = !minx and miny = !miny in
    (* cols = floor(span / cell) + 1 > span / cell, so interior
       coordinates index in range by construction.  Points landing
       exactly on the right/top edge (x = minx + span) are still
       clamped defensively: [(x -. minx) /. cell] re-rounds, and
       trusting it to stay strictly below [cols] leaves the bucket
       write one float ulp away from out-of-bounds. *)
    let cols = int_of_float (Float.floor ((!maxx -. minx) /. cell)) + 1 in
    let rows = int_of_float (Float.floor ((!maxy -. miny) /. cell)) + 1 in
    let clamp hi i = if i < 0 then 0 else if i >= hi then hi - 1 else i in
    let cell_of = Array.make n 0 in
    let counts = Array.make ((cols * rows) + 1) 0 in
    for v = 0 to n - 1 do
      let p = Embedding.point emb v in
      let cx = clamp cols (int_of_float ((p.Embedding.x -. minx) /. cell)) in
      let cy = clamp rows (int_of_float ((p.Embedding.y -. miny) /. cell)) in
      let c = cx + (cy * cols) in
      cell_of.(v) <- c;
      counts.(c + 1) <- counts.(c + 1) + 1
    done;
    for c = 0 to cols * rows do
      if c > 0 then counts.(c) <- counts.(c) + counts.(c - 1)
    done;
    let off = Array.copy counts in
    let ids = Array.make n 0 in
    let cursor = counts in
    (* visiting v in ascending order keeps each bucket ascending *)
    for v = 0 to n - 1 do
      let c = cell_of.(v) in
      ids.(cursor.(c)) <- v;
      cursor.(c) <- cursor.(c) + 1
    done;
    { minx; miny; cell; cols; rows; off; ids; cell_of }
  end

let cols t = t.cols
let rows t = t.rows
let cell_index t v = t.cell_of.(v)

let iter_neighborhood t u f =
  let c = t.cell_of.(u) in
  let cx = c mod t.cols and cy = c / t.cols in
  for dy = -1 to 1 do
    let y = cy + dy in
    if y >= 0 && y < t.rows then
      for dx = -1 to 1 do
        let x = cx + dx in
        if x >= 0 && x < t.cols then begin
          let b = x + (y * t.cols) in
          for i = t.off.(b) to t.off.(b + 1) - 1 do
            f (Array.unsafe_get t.ids i)
          done
        end
      done
  done

let min_y t = t.miny
let cell_offsets t = t.off
let cell_ids t = t.ids
