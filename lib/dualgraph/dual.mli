(** Dual graphs [(G, G')] with [E ⊆ E'] (paper §2).

    [G] holds the reliable links; [G' \ G] the unreliable ones.  A dual
    graph may carry an embedding witnessing the r-geographic property.
    [delta] and [delta'] are the degree bounds Δ and Δ' that the paper
    assumes every process knows (but {e not} n). *)

type t

val create :
  ?embedding:Embedding.t ->
  ?r:float ->
  ?validate:bool ->
  g:Graph.t ->
  g':Graph.t ->
  unit ->
  t
(** Builds a dual graph.  Raises [Invalid_argument] if the vertex sets
    differ or [E ⊈ E'] (the subset check is a free byproduct of the
    [E' \ E] enumeration and always runs).  If [embedding] is given, [r]
    defaults to [1.0] and the r-geographic conditions are {e checked}
    (raises on violation).  The check walks a unit-cell {!Grid}, so it
    costs O(|E'| + n · local density) rather than O(n²).
    [~validate:false] skips that geometric check; it is meant for
    callers that guarantee the property by construction (the
    {!Geometric} generators, whose scan already classified every pair —
    {!is_r_geographic} can always re-check after the fact). *)

val g : t -> Graph.t
(** The reliable graph G. *)

val g' : t -> Graph.t
(** The full graph G' (reliable plus unreliable edges). *)

val n : t -> int

val r : t -> float
(** The geographic parameter; [1.0] when no embedding is attached. *)

val embedding : t -> Embedding.t option

val delta : t -> int
(** Δ: an upper bound on [|N_G(u) ∪ {u}|] over all u (the exact maximum
    for this topology). *)

val delta' : t -> int
(** Δ': the same bound for G'. *)

val unreliable_edges : t -> (int * int) array
(** The edges of [E' \ E], each once with [u < v], in a fixed order.  The
    array index is the edge's identity for link schedulers. *)

val unreliable_count : t -> int
(** [|E' \ E|] — the number of unreliable edges (and the size of the
    activation buffers link schedulers fill). *)

val reliable_neighbors : t -> int -> int array
(** [N_G(u)], sorted; freshly allocated per call.  Hot paths should use
    {!iter_reliable_neighbors} or the CSR accessors of [g t]. *)

val all_neighbors : t -> int -> int array
(** [N_G'(u)], sorted; freshly allocated per call.  Hot paths should use
    {!iter_all_neighbors} or the CSR accessors of [g' t]. *)

val iter_reliable_neighbors : t -> int -> (int -> unit) -> unit
(** Allocation-free iteration over [N_G(u)] in ascending order. *)

val iter_all_neighbors : t -> int -> (int -> unit) -> unit
(** Allocation-free iteration over [N_G'(u)] in ascending order. *)

val fold_reliable_neighbors : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Allocation-free fold over [N_G(u)] in ascending order. *)

val unreliable_incidence_csr : t -> int array * int array * int array
(** [(offsets, nbr, edge)] — the unreliable-edge incidence in flat CSR
    form, precomputed at creation.  Node [u]'s incident unreliable edges
    occupy slots [offsets.(u) .. offsets.(u+1) - 1]: [nbr.(i)] is the far
    endpoint and [edge.(i)] the index into {!unreliable_edges}.  Owned by
    the dual graph — do not mutate. *)

val iter_unreliable_incident : t -> int -> (int -> int -> unit) -> unit
(** [iter_unreliable_incident t u f] applies [f nbr edge] to each
    unreliable edge incident to [u], without allocating. *)

val is_r_geographic : t -> bool
(** Re-checks the r-geographic conditions (always true for dual graphs
    built with an embedding; false is possible only for hand-built
    embeddings attached after the fact). *)

val pp : Format.formatter -> t -> unit
