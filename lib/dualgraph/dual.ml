type t = {
  g : Graph.t;
  g' : Graph.t;
  embedding : Embedding.t option;
  r : float;
  delta : int;
  delta' : int;
  unreliable : (int * int) array;
  (* Flat CSR incidence of the unreliable edges: node [u]'s incident
     unreliable edges are the slots [inc_off.(u) .. inc_off.(u+1) - 1],
     holding the far endpoint in [inc_nbr] and the edge's index into
     [unreliable] in [inc_edge].  Built once at creation so the engine
     never re-derives (or re-allocates) it per run. *)
  inc_off : int array;
  inc_nbr : int array;
  inc_edge : int array;
}

(* The r-geographic conditions:
   (a) every pair at distance <= 1 is a G-edge, and
   (b) every G'-edge spans distance <= r.
   Condition (b) is a linear scan of E'.  Condition (a) needs candidate
   pairs at distance <= 1; instead of the O(n²) all-pairs scan a
   unit-cell Grid compares each vertex only against the 3×3
   neighborhood of its cell — O(n · local density), which keeps
   [create] usable at n >= 10^4. *)
let check_r_geographic emb r g g' =
  let n = Embedding.n emb in
  let edges_ok =
    let ok = ref true in
    for u = 0 to n - 1 do
      Graph.iter_neighbors g' u (fun v ->
          if u < v && Embedding.vertex_distance emb u v > r then ok := false)
    done;
    !ok
  in
  edges_ok
  && begin
       let grid = Grid.create ~cell:1.0 emb in
       let ok = ref true in
       for u = 0 to n - 1 do
         Grid.iter_neighborhood grid u (fun v ->
             if
               v > u
               && Embedding.vertex_distance emb u v <= 1.0
               && not (Graph.mem_edge g u v)
             then ok := false)
       done;
       !ok
     end

(* One two-pointer merge per vertex over the sorted CSR slices of G and
   G' both verifies E ⊆ E' and enumerates E' \ E in lexicographic
   order — linear in |E| + |E'|, no per-edge binary searches or list
   churn.  [emit] sees each unreliable edge (u, v), u < v, in the order
   the [unreliable] array indexes them (the edge ids schedulers see). *)
let subset_and_diff ~g ~g' emit =
  let n = Graph.n g in
  let goff = Graph.csr_offsets g and gadj = Graph.csr_neighbors g in
  let g'off = Graph.csr_offsets g' and g'adj = Graph.csr_neighbors g' in
  let subset = ref true in
  let m = ref 0 in
  for u = 0 to n - 1 do
    let i = ref goff.(u) in
    let iend = goff.(u + 1) in
    for j = g'off.(u) to g'off.(u + 1) - 1 do
      let v = Array.unsafe_get g'adj j in
      while !i < iend && Array.unsafe_get gadj !i < v do
        (* a G-neighbor absent from the G' slice *)
        subset := false;
        incr i
      done;
      if !i < iend && Array.unsafe_get gadj !i = v then incr i
      else if v > u then begin
        emit u v !m;
        incr m
      end
    done;
    if !i < iend then subset := false
  done;
  (!subset, !m)

let create ?embedding ?(r = 1.0) ?(validate = true) ~g ~g' () =
  if Graph.n g <> Graph.n g' then
    invalid_arg "Dual.create: vertex count mismatch between G and G'";
  if r < 1.0 then invalid_arg "Dual.create: r must be >= 1";
  (match embedding with
  | None -> ()
  | Some emb ->
      if Embedding.n emb <> Graph.n g then
        invalid_arg "Dual.create: embedding size mismatch";
      if validate && not (check_r_geographic emb r g g') then
        invalid_arg "Dual.create: embedding violates the r-geographic property");
  let n = Graph.n g in
  let subset, m = subset_and_diff ~g ~g' (fun _ _ _ -> ()) in
  if not subset then invalid_arg "Dual.create: E is not a subset of E'";
  let unreliable = Array.make m (0, 0) in
  let (_ : bool * int) =
    subset_and_diff ~g ~g' (fun u v k -> unreliable.(k) <- (u, v))
  in
  let inc_off = Array.make (n + 1) 0 in
  Array.iter
    (fun (u, v) ->
      inc_off.(u + 1) <- inc_off.(u + 1) + 1;
      inc_off.(v + 1) <- inc_off.(v + 1) + 1)
    unreliable;
  for v = 0 to n - 1 do
    inc_off.(v + 1) <- inc_off.(v + 1) + inc_off.(v)
  done;
  let inc_nbr = Array.make (2 * m) 0 in
  let inc_edge = Array.make (2 * m) 0 in
  let cursor = Array.sub inc_off 0 n in
  Array.iteri
    (fun idx (u, v) ->
      inc_nbr.(cursor.(u)) <- v;
      inc_edge.(cursor.(u)) <- idx;
      cursor.(u) <- cursor.(u) + 1;
      inc_nbr.(cursor.(v)) <- u;
      inc_edge.(cursor.(v)) <- idx;
      cursor.(v) <- cursor.(v) + 1)
    unreliable;
  {
    g;
    g';
    embedding;
    r;
    delta = max 1 (Graph.max_closed_degree g);
    delta' = max 1 (Graph.max_closed_degree g');
    unreliable;
    inc_off;
    inc_nbr;
    inc_edge;
  }

let g t = t.g
let g' t = t.g'
let n t = Graph.n t.g
let r t = t.r
let embedding t = t.embedding
let delta t = t.delta
let delta' t = t.delta'
let unreliable_edges t = t.unreliable
let unreliable_count t = Array.length t.unreliable
let reliable_neighbors t u = Graph.neighbors t.g u
let all_neighbors t u = Graph.neighbors t.g' u
let iter_reliable_neighbors t u f = Graph.iter_neighbors t.g u f
let iter_all_neighbors t u f = Graph.iter_neighbors t.g' u f
let fold_reliable_neighbors t u ~init ~f = Graph.fold_neighbors t.g u ~init ~f

let unreliable_incidence_csr t = (t.inc_off, t.inc_nbr, t.inc_edge)

let iter_unreliable_incident t u f =
  for i = t.inc_off.(u) to t.inc_off.(u + 1) - 1 do
    f (Array.unsafe_get t.inc_nbr i) (Array.unsafe_get t.inc_edge i)
  done

let is_r_geographic t =
  match t.embedding with
  | None -> false
  | Some emb -> check_r_geographic emb t.r t.g t.g'

let pp ppf t =
  Format.fprintf ppf "@[dual n=%d |E|=%d |E'|=%d Δ=%d Δ'=%d r=%.2f@]"
    (n t) (Graph.edge_count t.g) (Graph.edge_count t.g') t.delta t.delta' t.r
