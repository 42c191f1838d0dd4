(** Observability glue for the local broadcast stack.

    The engine emits only structural events (rounds, transmissions,
    deliveries); everything protocol-level — phase boundaries, [bcast] /
    [ack] / [recv] service events, seed commits, progress receptions —
    lives in the round records LBAlg produces, which an {!Lb_spec}
    monitor walks anyway.  {!attach} makes that walk emit the matching
    {!Obs.Event} values into a sink and keeps the conventional
    {!Obs.Metrics} instruments; {!auditor} builds the event-fed
    {!Obs.Audit} monitor for a topology-plus-parameters pair.

    Pass the monitor's {!Lb_spec.observe} to {!Radiosim.Engine.run}
    (alongside the sink) and the engine's structural stream interleaves
    with the protocol stream in causal order: each round's protocol
    events land between its [Round_start] and [Round_end] brackets — the
    ordering {!Obs.Audit.observe} relies on.  {!wire} does this wiring
    for {!Service}, {!Mac} and the CLI. *)

type t

val attach : ?metrics:Obs.Metrics.t -> sink:Obs.Sink.t -> Lb_spec.monitor -> t
(** From now on the monitor's walk emits its protocol events into
    [sink] (see {!Lb_spec.tap} for the order).  When [metrics] is given
    the conventional instruments are kept too (see the name table in
    [docs/OBSERVABILITY.md]): counters [lb.bcasts], [lb.acks],
    [lb.recvs], [lb.seed_commits], [engine.transmits],
    [engine.deliveries], [engine.collisions]; histograms
    [lb.ack_latency] and [lb.progress_latency] (node-attributed),
    [lb.transmitters_per_round], and [seed.owners_per_neighborhood]
    (the δ occupancy of each closed G'-neighborhood, sampled once per
    phase); gauge [engine.rounds].  A labeled snapshot ([phase-0],
    [phase-1], …) is taken as each complete phase closes.  The counters
    are fed by a streaming consumer registered on [sink], so the engine
    counters also count events the engine emits directly. *)

val wire :
  faults:Faults.Plan.t option ->
  sink:Obs.Sink.t option ->
  metrics:Obs.Metrics.t option ->
  observer:(Lb_spec.record -> unit) option ->
  dual:Dualgraph.Dual.t ->
  params:Params.t ->
  Lb_spec.monitor * t option * (Lb_spec.record -> unit)
(** A fresh {!Lb_spec.monitor}, {!attach}ed to [sink] when there is one,
    and the engine observer that feeds it each record and then calls
    [observer].  Register event consumers that must see the whole
    stream (an {!Obs.Audit}) on [sink] before this call. *)

val snapshots : t -> Obs.Metrics.snapshot list
(** The per-phase snapshots taken so far, oldest first (empty without a
    registry).  Hand the list to {!Obs.Metrics.write_json} for the
    [BENCH_obs.json] artifact. *)

val auditor : ?window:int -> dual:Dualgraph.Dual.t -> params:Params.t -> unit -> Obs.Audit.t
(** {!Lb_spec.auditor}: the event-fed monitor for this topology and
    parameter set.  Attach it with
    [Obs.Sink.on_event sink (Obs.Audit.observe a)] {e before} the run so
    it sees the complete stream, and call {!Obs.Audit.finish} after.
    [window] is the causal-evidence ring size per violation. *)
