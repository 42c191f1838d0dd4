(** The synchronous execution engine for the dual graph model (paper §2).

    Round [t] (0-indexed) proceeds exactly as the model prescribes:

    + every node receives its environment inputs,
    + every node commits to [Transmit m] or [Listen],
    + the communication topology for the round is formed: all of [E] plus
      the subset of [E' \ E] the (oblivious) link scheduler activates,
    + node [u] receives [m] from [v] iff [u] listens, [v] transmits [m],
      and [v] is the {e only} transmitter among [u]'s neighbors in the
      round's topology; otherwise a listener receives ⊥ ([None] — no
      collision detection),
    + every node emits outputs, which the environment consumes.

    The combination (dual graph, nodes, scheduler, environment) is the
    paper's {e configuration}; given the per-node RNGs it fully determines
    the execution.

    Reception is resolved {e transmitter-centrically}: only the round's
    transmitters push (first-message, collision) state into
    per-listener scratch, along their reliable CSR slice and those of
    their incident unreliable edges
    ({!Dualgraph.Dual.unreliable_incidence_csr}) that are {e active}.
    How an edge's state is read is fixed per run by
    {!Scheduler.resolves_sparsely}.  A per-edge scheduler
    ({!Scheduler.bernoulli}, {!Scheduler.make}) is asked
    {!Scheduler.active} for each such edge, so a round costs
    O(T·Δ' + n) for T transmitters, whatever m is.  A natively sparse
    scheduler ({!Scheduler.bernoulli_sparse}, the constant and periodic
    ones) and an adaptive adversary instead materialize the round's
    active set once into a reusable index buffer
    ({!Scheduler.fill_active_sparse}), marked in a per-run byte map
    for the push to read and cleared after it: O(T·Δ' + active + n),
    with [active ≈ p·m ≪ m] for the sparse schedulers.
    Either way this is the regime the decay-ladder algorithms live in,
    where T is a small constant, instead of the listener-centric
    O(n·Δ') of the frozen reference resolver ([Oracle.run_reference]
    in the test-only [test/oracle] library).

    Within a round the engine calls the closures it is given in a fixed
    order: every [env.inputs] (ascending node order, dead nodes
    skipped), then every [decide] (ascending), then every [absorb]
    (ascending), then [env.notify] for each node with outputs
    (ascending), then [observer] and [stop].  {!run}, {!run_adaptive}
    and {!Tiled.run} share one round core; this module runs it on a
    single tile, with no tiling state and no domain pool.

    Step 4's collision rule is the {e reception model} and is pluggable
    ({!Reception.t}): the default {!Reception.Dual_graph} is the rule
    above (the property suite and the golden corpus hold it to
    bit-identical traces); {!Reception.Sinr} replaces it with physical
    interference computed over the topology's Euclidean embedding — the
    scheduler is then not consulted and steps 1–3 and 5 run unchanged.
    See [docs/RECEPTION.md] for the contract both models satisfy. *)

val run :
  ?observer:(('msg, 'input, 'output) Trace.round_record -> unit) ->
  ?stop:(('msg, 'input, 'output) Trace.round_record -> bool) ->
  ?sink:Obs.Sink.t ->
  ?metrics:Obs.Metrics.t ->
  ?faults:Faults.Plan.t ->
  ?revive:(node:int -> round:int -> ('msg, 'input, 'output) Process.node) ->
  ?reception:Reception.t ->
  dual:Dualgraph.Dual.t ->
  scheduler:Scheduler.t ->
  nodes:('msg, 'input, 'output) Process.node array ->
  env:('input, 'output) Env.t ->
  rounds:int ->
  unit ->
  int
(** Executes up to [rounds] rounds and returns the number actually
    executed.  [observer] sees each round's record as it completes;
    [stop], checked after the observer, ends the run early when it
    returns [true].  A record's four arrays are the engine's own
    per-round scratch, allocated once per run: they are lent only for
    the duration of the call and overwritten by the next round, so an
    observer that keeps a record copies them ({!Trace.recorder} does).
    Raises [Invalid_argument] if the node array size differs from the
    graph's vertex count.

    [sink], when given, receives the structural event stream of the run
    (per round: [Round_start], one [Transmit] per transmitter, one
    [Deliver] or [Collision] per affected listener, then — after the
    observer, so a translating observer's protocol events nest inside
    the round — [Round_end] with the round's aggregate counts).  When
    absent, no event code runs at all: the execution path, allocation
    behavior and produced traces are exactly those of the
    uninstrumented engine.

    [metrics], when given, registers two counters on the registry and
    advances them once per round in which the activation set is resolved
    (rounds with at least one transmitter and at least one unreliable
    edge).  Both describe the round's {e full} activation set, as a
    batch fill ({!Scheduler.fill_active_sparse}) reads it:
    [engine.active_edges] accumulates its size, and
    [scheduler.edges_resolved] the number of per-edge resolutions that
    fill performs — equal to the active count for natively sparse
    schedulers ({!Scheduler.resolves_sparsely}) and to the unreliable
    edge count m for per-edge ones.  Under a per-edge scheduler the
    round itself asks only the transmitters' edges, so the registry
    adds one O(m) fill per resolved round that an unmetered run never
    pays.  As with [sink], absence means the counting code never
    runs.

    [faults], when given, attaches a {!Faults.Plan} (whose node count
    must match the graph's).  Transitions take effect at the top of
    their round: a {e dead} node (crash round reached, restart round
    not) is invisible to its environment ([inputs] not polled, outputs
    discarded), its process is not stepped, it never transmits and it
    receives nothing (its trace record shows [Listen] / no delivery /
    no outputs); a node inside a {e jam window} still runs and may
    decide to transmit, but the transmission is suppressed before
    reception is resolved — no listener hears it and it causes no
    collisions.  A {e restart} clears deadness and swaps in the process
    [revive ~node ~round] returns (fresh algorithm state); without
    [revive] the frozen pre-crash process resumes.  The caller's node
    array is never mutated (restarts act on an internal copy).  With a
    sink, [Crash]/[Restart] events are emitted inside the round's
    bracket before any [Transmit]; with metrics, [faults.crashes],
    [faults.restarts] and [faults.jams] counters advance.  With an
    {e empty} plan — or none — the run is bit-identical to the
    uninstrumented engine.

    [reception] selects the reception model (default
    {!Reception.dual_graph}, the semantics documented above — the run is
    then bit-identical to the engine before models were pluggable).
    Under {!Reception.Sinr} the round's listeners instead decode by
    signal-to-interference ratio over the topology's embedding: the link
    scheduler is not consulted ([scheduler] may still drive other runs;
    here its edges simply never fire), [engine.active_edges] and
    [scheduler.edges_resolved] do not advance, a failed decode still
    emits [Collision], and a jam window adds the model's [jam] noise to
    the victim's receiver instead of suppressing its transmission
    ([faults.jams] then counts jammed {e listeners} per contended
    round).  Raises [Invalid_argument] if the model requires an
    embedding the topology lacks. *)

val run_adaptive :
  ?observer:(('msg, 'input, 'output) Trace.round_record -> unit) ->
  ?stop:(('msg, 'input, 'output) Trace.round_record -> bool) ->
  ?sink:Obs.Sink.t ->
  ?metrics:Obs.Metrics.t ->
  ?faults:Faults.Plan.t ->
  ?revive:(node:int -> round:int -> ('msg, 'input, 'output) Process.node) ->
  ?reception:Reception.t ->
  dual:Dualgraph.Dual.t ->
  adversary:Adaptive.t ->
  nodes:('msg, 'input, 'output) Process.node array ->
  env:('input, 'output) Env.t ->
  rounds:int ->
  unit ->
  int
(** Like {!run}, but the unreliable-edge choice is made by an
    {!Adaptive} adversary that sees the round's transmission vector —
    the model variant under which the paper's predecessor work proves
    efficient progress impossible.  The adversary is consulted once per
    (round, edge) while the activation index list is filled (an
    adversary is inherently dense: it must see every edge to rule on
    it, so [scheduler.edges_resolved] advances by the full unreliable
    edge count per resolved round).  [sink], [metrics], [faults] and
    [revive] behave as in {!run}; note the adversary sees the
    {e on-air} transmission vector — dead and jammed nodes read as
    non-transmitters.  Kept separate from {!run} so that a type of
    scheduler can never silently escalate into the stronger
    adversary.  [reception] must be {!Reception.Dual_graph} (the
    default): the adversary's whole power is ruling on unreliable
    edges, which SINR ignores — passing an SINR model raises
    [Invalid_argument] rather than silently dropping the adversary. *)
