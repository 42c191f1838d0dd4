(** Oblivious link schedulers (paper §2).

    A link scheduler resolves, for every round [t], which edges of
    [E' \ E] join the communication topology.  The paper's scheduler is a
    sequence [G₁, G₂, …] fixed before the execution starts — i.e.
    {e oblivious}: it may know the algorithm and the topology, but not the
    coin flips of the run.  We enforce obliviousness structurally: a
    scheduler is a pure function of [(round, edge index)] plus state fixed
    at construction time (its own seed, the decay schedule it is
    attacking, …), and the engine never feeds execution information back
    into it.

    Edge indices refer to {!Dualgraph.Dual.unreliable_edges}. *)

type t

val name : t -> string

val active : t -> round:int -> edge:int -> bool
(** Whether unreliable edge [edge] is present in round [round]. *)

val fill_active_sparse : t -> round:int -> m:int -> int array -> int
(** [fill_active_sparse t ~round ~m buf] writes the indices of the edges
    active in [round] (among edges [0 .. m-1]) into the prefix of [buf]
    in strictly increasing order, each exactly once, and returns their
    count.  Callers size [buf] to at least [m]
    ({!Dualgraph.Dual.unreliable_count}) and reuse it across rounds.
    Agrees with {!active} edge-by-edge (checked by the test suite), but
    resolves each edge at most once per round, and schedulers whose
    expected active set is far smaller than [m] — constant/periodic
    schedulers and {!bernoulli_sparse} — emit the set directly in time
    proportional to its size, instead of resolving all [m] edges.  Raises
    [Invalid_argument] if [m < 0] or [buf] is shorter than [m].

    Domain safety: the round core walks each transmitter's incident
    unreliable edges and picks, once per run, how it asks whether one
    is up.  A natively sparse scheduler ({!resolves_sparsely}) has its
    activation set filled by this function once per round from a
    single domain ({!Tiled.run} does so on its coordinator, which marks
    the set for the tile workers to read), so it needs no internal
    synchronization — but see {!bernoulli_sparse} for why one [t] value
    must still not be shared across concurrently running engine
    instances.  Any other scheduler ({!make}, {!bernoulli}) is asked
    {!active} per unreliable edge incident to a transmitter, from the
    tile workers concurrently under {!Tiled.run}; such a scheduler must
    therefore be pure, as {!make} already requires. *)

val resolves_sparsely : t -> bool
(** Whether {!fill_active_sparse} does work proportional to the emitted
    set ([true]) rather than resolving every edge per round ([false] —
    the derived fallback used by {!make} and hash-per-edge schedulers
    like {!bernoulli}).  Selects how the round core reads a
    transmitter's incident edges: [true] fills the round's set in one
    batch and marks it, [false] asks {!active} about each of those
    edges.  Either way only the transmitters' incident edges are
    walked.  Also feeds the [scheduler.edges_resolved] observability
    counter; see [docs/OBSERVABILITY.md]. *)

val make : name:string -> (round:int -> edge:int -> bool) -> t
(** Build a custom scheduler.  The function must be pure (the round
    core may call it from several domains at once); the batch
    {!fill_active_sparse} form is derived from it. *)

val reliable_only : t
(** Never includes an unreliable edge: the topology is always G.  Under
    this scheduler the model degenerates to the classical radio network
    model. *)

val all_edges : t
(** Always includes every unreliable edge: the topology is always G'. *)

val bernoulli : seed:int -> p:float -> t
(** Each (edge, round) pair is included independently with probability
    [p], via a hash of the pair — oblivious by construction and pure.
    The round core hashes only the transmitters' incident edges; a
    batch fill costs one hash per edge.  For sweeps where [p·m] is
    small, {!bernoulli_sparse} has the same distribution at cost
    proportional to the active set. *)

val bernoulli_sparse : seed:int -> p:float -> t
(** Distributionally equivalent to {!bernoulli} — each (edge, round)
    pair active independently with probability [p], per-round active
    count Binomial(m, p) — but {e not} bit-identical to it: the active
    set is drawn by geometric skip sampling from a per-round SplitMix
    stream seeded by [(seed, round)], so {!fill_active_sparse} costs
    O(p·m + 1) per round instead of one hash per edge.  Still oblivious:
    the round's set is a pure function of the round number.  The
    two-sample tests in the suite check both the per-edge marginal and
    the per-round count distribution against {!bernoulli}.  Membership
    queries ({!active}) replay the round's walk through a one-round
    memo, which makes a single [t] value unsafe to share across domains
    (create one per trial, as the experiment harness already does). *)

val flicker : period:int -> duty:int -> t
(** Deterministic periodic scheduler: edges are present in rounds
    [t mod period < duty] and absent otherwise. *)

val edge_phase_flicker : period:int -> t
(** Each edge [e] is present only in rounds [t ≡ e mod period] — different
    edges alternate, so local contention keeps shifting shape. *)

val thwart : hot:(int -> bool) -> t
(** The Discussion-§1 adversary, parameterized by a predicate telling it
    in which rounds the attacked fixed-probability schedule transmits with
    {e high} probability.  In hot rounds it includes every unreliable edge
    (maximizing contention, forcing collisions); in cold rounds it removes
    them all (so the few remaining reliable transmitters almost never
    fire).  [hot] must be a pure function of the round number: the
    scheduler remains oblivious, since a fixed transmit-probability
    schedule is known before the execution begins. *)

val pp : Format.formatter -> t -> unit
