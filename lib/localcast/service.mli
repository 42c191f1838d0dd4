(** One-call runners for the local broadcast service.

    Most users want to answer one of three questions about a topology:
    does the service meet its spec here, how long until a receiver first
    hears something, and does a one-shot broadcast reach the whole
    neighborhood in time?  These functions package the full pipeline —
    network construction, environment, engine, spec monitor — behind a
    single deterministic call (same arguments ⟹ same numbers).  The
    experiment harness in [bench/] is built from exactly these. *)

type outcome = {
  report : Lb_spec.report;  (** the spec monitor's verdicts *)
  rounds_executed : int;
  obs_snapshots : Obs.Metrics.snapshot list;
      (** per-phase metric snapshots, oldest first; non-empty only when
          the run was given both a sink and a metrics registry *)
}

val reviver :
  ?seed_source:Lb_alg.seed_source ->
  params:Params.t ->
  seed:int ->
  unit ->
  node:int ->
  round:int ->
  (Messages.msg, Messages.lb_input, Messages.lb_output) Radiosim.Process.node
(** The fresh-state re-entry function the runners pass to
    {!Radiosim.Engine.run} as [?revive] under a fault plan: a brand-new
    {!Lb_alg.node} whose generator is [mix(seed·A + (node+1)·B +
    (round+1)·C)] — a pure function of the run's identity, so faulted
    runs stay bit-identical at any trial-parallelism split.  Exposed for
    drivers (the CLI, benches) that call the engine directly. *)

val run :
  ?scheduler:Radiosim.Scheduler.t ->
  ?seed_source:Lb_alg.seed_source ->
  ?observer:
    ((Messages.msg, Messages.lb_input, Messages.lb_output) Radiosim.Trace.round_record ->
    unit) ->
  ?sink:Obs.Sink.t ->
  ?metrics:Obs.Metrics.t ->
  ?faults:Faults.Plan.t ->
  ?reception:Radiosim.Reception.t ->
  dual:Dualgraph.Dual.t ->
  params:Params.t ->
  senders:int list ->
  phases:int ->
  seed:int ->
  unit ->
  outcome
(** Saturates the given senders for [phases] service phases under the
    scheduler (default Bernoulli(1/2) derived from [seed]) and returns
    the spec monitor's verdicts.  [observer] additionally sees every
    round record.

    [sink] turns on observability: the engine emits its structural
    events into it and the spec monitor's walk ({!Lb_obs.wire}) adds
    the protocol events, interleaved in causal order (an {!Obs.Audit} consumer registered on
    the sink before the call sees the complete stream).  [metrics], used
    together with [sink], additionally maintains the conventional
    instruments and fills [obs_snapshots] with one labeled snapshot per
    completed phase.  Neither option perturbs the execution: traces,
    verdicts and RNG draws are identical with and without them.

    [faults] runs the engine under the given {!Faults.Plan} with
    survivor-relative spec accounting (see {!Lb_spec}): the report's
    [t_ack]/[t_prog] claims are scoped to nodes alive for the full
    obligation window, so a crash plan yields no false breaches.
    Restarted nodes re-enter with a fresh LBAlg process whose RNG is
    derived from (seed, node, round) via SplitMix — deterministic at any
    domain count.

    [reception] selects the engine's reception model (default
    {!Radiosim.Reception.dual_graph}); the algorithm, environment, spec
    monitor and observability rail are physics-agnostic and run
    unchanged over {!Radiosim.Reception.Sinr}.  Under a fault plan note
    the SINR jam semantics: jam windows degrade the victim's reception
    instead of suppressing its transmission (see [docs/RECEPTION.md]). *)

val one_shot :
  ?scheduler:Radiosim.Scheduler.t ->
  ?sink:Obs.Sink.t ->
  ?metrics:Obs.Metrics.t ->
  ?faults:Faults.Plan.t ->
  ?reception:Radiosim.Reception.t ->
  dual:Dualgraph.Dual.t ->
  params:Params.t ->
  sender:int ->
  seed:int ->
  unit ->
  outcome * Coverage.t * int option
(** A single [bcast] at round 0, run for the full derived
    acknowledgement window [t_ack].  The second component tallies each
    node's first reception of the message (its first [Recv], see
    {!Coverage}).  The third is the round by which the {e last} reliable
    neighbor had received the message, if all of them did, and [None]
    when the sender, never alive during the run, was never handed its
    bcast.  [sink], [metrics], [faults] and [reception] behave as in
    {!run}; under a fault plan, completion is judged over the {e
    survivor} neighbors (alive for the whole run) only. *)

val first_reception :
  ?scheduler:Radiosim.Scheduler.t ->
  ?seed_source:Lb_alg.seed_source ->
  ?sink:Obs.Sink.t ->
  ?faults:Faults.Plan.t ->
  ?reception:Radiosim.Reception.t ->
  dual:Dualgraph.Dual.t ->
  params:Params.t ->
  receiver:int ->
  max_rounds:int ->
  seed:int ->
  unit ->
  int option
(** All nodes except [receiver] saturate; returns the 0-based round of
    the receiver's first clean data reception, or [None] if it starves
    for [max_rounds].  [sink] receives the engine's structural events
    (this runner has no spec observer, so no protocol events);
    [reception] behaves as in {!run}. *)
