(** An abstract MAC layer over LBAlg (paper §1, §5).

    The abstract MAC layer of Kuhn, Lynch and Newport exposes exactly
    three events per node — [bcast(m)] requests, [ack(m)] confirmations
    and [recv(m)] deliveries — with a progress bound [f_prog] and an
    acknowledgement bound [f_ack], hiding all channel details.  LBAlg's
    interface is already event-shaped, so the adaptation the paper calls
    "likely straightforward" amounts to this module: it packages an LBAlg
    network plus the {!Lb_env} environment, whose request slot enforces
    the one-outstanding-bcast rule (§4.1's contract is stated there) and
    whose callbacks carry the events to the application, and it reports
    [f_prog = t_prog] and [f_ack = t_ack].

    Applications written against this interface (e.g. {!Macapps.Serve},
    whose one-message batch is the flood) run on the dual graph model
    unchanged — the porting claim of the paper's introduction. *)

type callbacks = Lb_env.callbacks = {
  on_recv : node:int -> round:int -> Messages.payload -> unit;
  on_ack : node:int -> round:int -> Messages.payload -> unit;
}

val no_callbacks : callbacks

type t

val create :
  ?callbacks:callbacks ->
  params:Params.t ->
  rng:Prng.Rng.t ->
  dual:Dualgraph.Dual.t ->
  unit ->
  t
(** Builds the LBAlg network underneath.  Callbacks may call {!request}
    re-entrantly (e.g. relaying from [on_recv]); the new bcast is
    delivered to the MAC at the next round. *)

val request : t -> node:int -> tag:int -> bool
(** [request t ~node ~tag] asks the MAC at [node] to broadcast a fresh
    message (unique uid, the given application [tag]) to its reliable
    neighborhood.  Returns [false] — and does nothing — if the node still
    has an unacknowledged bcast outstanding (the abstract MAC layer
    forbids overlapping requests). *)

val busy : t -> node:int -> bool

val f_prog : t -> int
(** The progress bound this MAC provides (= t_prog of the LB service). *)

val f_ack : t -> int
(** The acknowledgement bound (= t_ack). *)

val run :
  ?observer:
    ((Messages.msg, Messages.lb_input, Messages.lb_output) Radiosim.Trace.round_record ->
    unit) ->
  ?stop:
    ((Messages.msg, Messages.lb_input, Messages.lb_output) Radiosim.Trace.round_record ->
    bool) ->
  ?sink:Obs.Sink.t ->
  ?metrics:Obs.Metrics.t ->
  ?faults:Faults.Plan.t ->
  ?revive:
    (node:int ->
    round:int ->
    (Messages.msg, Messages.lb_input, Messages.lb_output) Radiosim.Process.node) ->
  ?reception:Radiosim.Reception.t ->
  ?tick:(round:int -> unit) ->
  t ->
  scheduler:Radiosim.Scheduler.t ->
  rounds:int ->
  int
(** Drive the network for up to [rounds] rounds (callbacks fire as events
    happen); returns rounds executed.  May only be called once per [t].

    [tick] fires once at the top of every round, before any node's
    requested bcast is handed over — the hook open-loop workload drivers
    ({!Macapps.Serve}) use to inject this round's arrivals: a
    {!request} made inside the tick is delivered to the MAC in the same
    round, deterministically, for every node.  (Under a fault plan the
    tick rides the first {e live} node's input poll; a round in which
    every node is dead has no tick.)
    [sink] receives the engine's structural events interleaved with the
    protocol events of an {!Lb_spec} monitor wired by {!Lb_obs.wire}
    (under [faults] too), as in {!Service.run}; when
    [metrics] is also given the conventional instruments (see
    [docs/OBSERVABILITY.md]) are maintained in it.  [metrics] without
    [sink] is ignored.

    [faults] and [revive] are forwarded to {!Radiosim.Engine.run}: a
    crashed MAC node goes silent (its outstanding request, if any, stays
    outstanding — the application sees no ack) and a restart swaps in
    the process [revive] supplies; use [Lb_alg.node] with a derived RNG
    for fresh-state re-entry, as {!Service.run} does.

    [reception] selects the engine's reception model (default
    {!Radiosim.Reception.dual_graph}); the MAC's request/ack contract is
    physics-agnostic — see [docs/RECEPTION.md]. *)
