(** Flat uniform spatial grid over an {!Embedding}, for neighbor-candidate
    queries.

    Both the geometric generators and [Dual.create]'s r-geographic
    validator need "all vertices within distance [d] of [u]" candidate
    sets.  This grid buckets the points into square cells of side
    [cell] (CSR layout, counting sort — two O(n) passes, no hashing) so
    a 3x3 cell neighborhood covers every candidate at distance [<= cell]
    in O(local density) per query. *)

type t

val create : cell:float -> Embedding.t -> t
(** [create ~cell emb] buckets the points of [emb] into square cells of
    side [cell].  Raises [Invalid_argument] unless [cell > 0].  Within a
    cell, vertex ids are stored in ascending order. *)

val cols : t -> int
(** Number of cell columns (>= 1). *)

val rows : t -> int
(** Number of cell rows (>= 1). *)

val cell_index : t -> int -> int
(** [cell_index t v] is vertex [v]'s flat cell index, in
    [0 .. cols t * rows t - 1]; the column is [cell_index t v mod
    cols t].  Boundary coordinates (a point exactly on the field's
    right/top edge) are clamped into the last column/row, never out of
    range.  {!Tile} stripes the field by these columns. *)

val iter_neighborhood : t -> int -> (int -> unit) -> unit
(** [iter_neighborhood t u f] applies [f] to every vertex in the 3x3
    block of cells centered on [u]'s cell — a superset of all vertices
    within distance [cell] of [u] ([u] itself included).  Each cell is
    visited once and yields its ids in ascending order, so the full
    visit sequence is a concatenation of at most 9 ascending runs. *)

(** {2 Read-only views}

    For callers that run their own range queries over the buckets.
    The arrays are the grid's own: do not mutate them. *)

val min_y : t -> float
(** The smallest y coordinate of the embedding: row [r] covers
    [y] in [[min_y + r·cell, min_y + (r+1)·cell)] (the last row also
    takes the top edge). *)

val cell_offsets : t -> int array
(** The bucket CSR offsets, length [cols · rows + 1]: cell [b] (flat
    index [column + row · cols]) holds entries
    [cell_offsets.(b) .. cell_offsets.(b+1) - 1] of {!cell_ids}. *)

val cell_ids : t -> int array
(** The bucket CSR payload, length [n]: vertex ids bucketed by cell,
    ascending within a cell. *)
