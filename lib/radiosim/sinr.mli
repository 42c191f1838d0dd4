(** The SINR reception backend: received-power bookkeeping over a
    topology's Euclidean embedding.

    A {!t} is prepared once per run and reused across rounds; the engine
    loads each round's transmitter set ({!load_round}), scans the
    listeners of the round's active columns in batches ({!scan_slots})
    and reads back, per listener slot, who (if anyone) was decoded
    ({!verdict}).  Each verdict is a pure function of [(transmitter set,
    listener, jammed)], so tiles can scan disjoint slot ranges from any
    worker domain in any order and still produce the one-tile trace.

    {b The power-sum aggregation scheme.}  Received power at distance
    [d] is [power / d^alpha].  Summing it over every transmitter for
    every listener is O(T·n) per round, so the field splits the sum at
    the granularity of the embedding's {!Dualgraph.Grid} columns — the
    same columns {!Dualgraph.Tile} builds its stripes from, at cell
    side [max r 1]:

    - {e near field}: transmitters within [near] columns of the
      listener are summed {e exactly}, bucketed per column by a
      counting sort (ascending id within a column, columns ascending) —
      the candidate (strongest transmitter) always comes from this
      band;
    - {e far field}: each column beyond the band contributes
      [count · power / (Δcol · cell)^alpha] — its transmitter count
      times the power of a single transmitter at the column-center
      distance — accumulated into a per-column table once per round.

    {b Output-sensitive kernels.}  Rounds are sparse in practice — a
    handful of transmitters against millions of listeners — so the
    per-round work is proportional to the transmitters' footprint, not
    to the field:

    - the far-field table sums over the [K] {e occupied} columns only,
      O(K·cols) instead of O(cols²) — a column with no transmitters
      contributes an exact [+0.0], so skipping it leaves every partial
      sum bit-identical;
    - the occupied columns induce the round's {e active} columns (those
      within [near] of one); a listener anywhere else provably has no
      in-band candidate and decodes [-1], so the engines never visit it
      ({!active_columns}, {!column_active});
    - within an active column, {!scan_slots} computes every listener's
      candidate and power sum in one batched pass over the in-band
      transmitter slices (loop interchange — per-listener accumulation
      order unchanged), with verdicts read back per slot ({!verdict}).

    Every sum is accumulated in one fixed global order (columns
    ascending, ids ascending within a column), never in tile order, so
    floating-point results — and therefore traces — are bit-identical
    at any tile count.  [docs/RECEPTION.md] works the scheme, its cost
    model and its error envelope; the test suite checks exact agreement
    with the frozen dense path (the test-only [Oracle.Sinr_dense],
    rebuilt from this module's public inputs) across the scheduler and
    fault zoo, and with a naive all-pairs sum whenever the band covers
    the whole field. *)

type t

val create : params:Reception.sinr -> Dualgraph.Dual.t -> t
(** Prepares the power field: copies the embedding into flat coordinate
    arrays, assigns each node its grid column, builds the per-column
    listener CSR, and precomputes the per-distance far-field power
    table.  O(n + cols); all per-round buffers are allocated here, so
    rounds allocate nothing.

    @raise Invalid_argument if the dual graph carries no embedding. *)

val cols : t -> int
(** Number of grid columns the field is bucketed into. *)

val column_of : t -> int -> int
(** The grid column a node lives in (fixed at creation). *)

val slot_off : t -> int array
(** The listener CSR offsets, length [cols + 1]: column [c]'s nodes
    occupy slots [slot_off.(c) .. slot_off.(c+1) - 1] of {!slot_node}.
    Shared with the caller — do not mutate. *)

val slot_node : t -> int array
(** The listener CSR payload, length [n]: all nodes in column-major
    order, ascending by id within a column — the same spatial ranking
    {!Dualgraph.Tile} stripes, so contiguous slot ranges are valid
    work-partition units for the tiled engine.  Do not mutate. *)

val load_round : t -> transmitters:int array -> count:int -> unit
(** Loads the round's transmitter set — the first [count] slots of
    [transmitters], which must be strictly ascending node ids (both
    engines produce them that way).  Buckets them by column, rebuilds
    the far-field table over the occupied columns, and derives the
    round's active-column set.  O(T + K·cols) for K occupied columns. *)

val active_columns : t -> int array * int
(** [(act, nact)] — the loaded round's active columns are the first
    [nact] entries of [act], ascending.  A column is active iff some
    column within [near] of it holds a transmitter; every listener of
    an inactive column decodes [-1] (nothing in band), so the engine
    never scans inactive columns.  The set is derived
    from topology-fixed column data only, never from the tiling.  The
    array is reused by the next {!load_round} — do not mutate. *)

val column_active : t -> int -> bool
(** Whether a column is in the loaded round's active set. *)

val scan_slots : t -> column:int -> lo:int -> hi:int -> unit
(** Batched near-band scan for the listeners in slots [lo..hi-1] of
    {!slot_node} — all of which must lie in [column] — filling the
    per-slot scratch {!verdict} reads.  One pass per in-band
    transmitter slice is shared by all listeners of the range; each
    listener's accumulation order (and so every float and tie-break) is
    exactly the per-listener scan's.  Disjoint slot ranges write
    disjoint scratch, so concurrent tiles may share one [t]. *)

val verdict : t -> jammed:bool -> slot:int -> int
(** The loaded round's outcome for the listener in [slot], read from
    the scratch a covering {!scan_slots} filled: the decoded
    transmitter's id; [-1] if no transmitter lies within the near band
    (silence — nothing to decode); [-2] if the strongest in-band
    transmitter failed the SINR test (drowned — the dual-graph model's
    collision).  [jammed] adds the model's [jam] noise to the
    listener's floor — under SINR a jam window degrades the victim's
    {e reception} instead of suppressing its transmission (see
    [docs/RECEPTION.md] §4).  The caller is responsible for only
    consulting slots of listeners (alive, not transmitting). *)
