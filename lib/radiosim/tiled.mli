(** Domain-parallel tiled execution of the synchronous engine.

    The field is partitioned into spatial tiles ({!Dualgraph.Tile});
    each round runs as three SPMD phases over a persistent domain pool
    ({!Parallel.Pool}), with the calling domain doubling as tile 0's
    worker and as the coordinator for everything that must stay
    serial:

    + {b decide} — each tile polls its members' inputs (when the
      environment is {!Env.pure_inputs}), then steps their [decide],
      and records its transmitters;
    + {b resolve} — under the dual-graph model each tile's transmitters
      push along their reliable CSR slice and their active unreliable
      edges: a per-edge scheduler ({!Scheduler.resolves_sparsely}
      false, e.g. {!Scheduler.bernoulli}) is asked about each incident
      edge from the tile's own worker, and otherwise the tile reads the
      round's activation marks, set by the coordinator.  Receptions for
      listeners the tile owns land directly in the shared per-listener
      accumulator; receptions for foreign listeners are appended to a
      per-(source, destination) tile outbox — the {e halo exchange};
    + {b absorb} — each tile drains the outboxes addressed to it, then
      computes its own nodes' delivery results and steps [absorb].

    Between phases the coordinator runs the serial spine in ascending
    node order: fault transitions, impure input polling, the batch
    activation fill and its marks (batch-form schedulers, and the
    counters of a metered run), event emission, [notify], observer and
    stop.

    This is the same round core {!Engine.run} runs on one tile — the
    sequential engine is its one-tile case, with no tiling state and no
    pool — so the two cannot drift apart.

    {b Determinism.}  The produced trace — round records, event
    stream, metrics — is bit-identical to {!Engine.run}'s under
    {e any} tile count.  Two facts carry the argument: (a) a
    listener's reception outcome is a commutative-monoid fold of the
    multiset of transmissions reaching it (0 → silence, 1 → the
    message, ≥2 → collision), so the order in which local pushes and
    drained halo pushes arrive cannot change it; and (b) every
    trace-visible serialization — event order, [notify] order, record
    layout — is produced by the coordinator scanning global state in
    ascending node order, never in tile order.  DESIGN.md §10 gives
    the full argument; the golden corpus anchors the one-tile case, and
    the property suite checks several tile counts against it and
    against the frozen reference resolver in [test/oracle].

    {b Requirements.}  Node processes must be {e node-independent}:
    [decide]/[absorb] closures may touch only their own node's state
    (true of every process in this repository — each draws from its
    own RNG).  Environments are consulted from worker domains only
    when they declare {!Env.pure_inputs}.

    {b Reception models.}  Under {!Reception.Sinr} the resolve phase
    scans instead of pushing, so there is no halo exchange: the
    coordinator loads the round's transmitters, in ascending id order,
    into the shared {!Sinr} field once per round, and each tile runs
    {!Sinr.scan_slots} and {!Sinr.verdict} over its own contiguous
    range of the field's listener slots.  Every float is accumulated in
    an order fixed by the topology's grid columns, never by the tiling,
    so traces stay bit-identical across tile counts under either
    model. *)

val default_tiles : unit -> int
(** [1 + Parallel.Budget.suggested_extra ()] — the tile count {!run}
    uses when [?tiles] is omitted: one tile per domain the machine can
    still absorb.  1 on a single-core host or when the budget is
    already consumed (e.g. inside a [trials_par] worker). *)

val run :
  ?observer:(('msg, 'input, 'output) Trace.round_record -> unit) ->
  ?stop:(('msg, 'input, 'output) Trace.round_record -> bool) ->
  ?sink:Obs.Sink.t ->
  ?metrics:Obs.Metrics.t ->
  ?faults:Faults.Plan.t ->
  ?revive:(node:int -> round:int -> ('msg, 'input, 'output) Process.node) ->
  ?tiles:int ->
  ?reception:Reception.t ->
  dual:Dualgraph.Dual.t ->
  scheduler:Scheduler.t ->
  nodes:('msg, 'input, 'output) Process.node array ->
  env:('input, 'output) Env.t ->
  rounds:int ->
  unit ->
  int
(** Like {!Engine.run}, executed over [tiles] tiles on as many domains
    (default {!default_tiles}; values are clamped to the vertex
    count).  [tiles = 1] is exactly {!Engine.run}: no tiling state and
    no pool.  Returns the number of rounds executed.  As in
    {!Engine.run}, [observer] and [stop] are lent each round record's
    arrays only for the duration of the call ({!Trace.recorder} copies
    them).

    An exception raised by a process on any worker domain is
    re-raised here with its backtrace after the in-flight phase
    barrier completes, and the pool is torn down.

    [reception] behaves as in {!Engine.run} (default
    {!Reception.dual_graph}); the multi-tile SINR path is documented
    above.

    @raise Invalid_argument on the same conditions as {!Engine.run},
    or if [tiles < 1]. *)
