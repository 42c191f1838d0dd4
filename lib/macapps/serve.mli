(** Multi-message serving over the abstract MAC layer.

    An ongoing service facing millions of arrivals has no fixed message
    count [k] to size O(k·n) delivery state by.  This module is the
    open-loop serving engine: an arrival process ({!Workload}) injects
    fresh messages every round, each node stores-and-forwards through a
    {e bounded} relay queue with an explicit backpressure policy, and
    all message state lives in a pooled, generation-tagged slot table
    whose footprint is O(max in-flight) — independent of how long the
    run lasts, how many messages pass through, and the ttl.

    The closed case runs on the same engine: a [Batch] workload
    ({!Workload.process}) puts every message at round 0, so [batch:S]
    is the flood and [batch:S1,…,Sk] the multi-message broadcast of the
    abstract-MAC-layer literature.  {!run} stops once such a batch has
    nothing in flight; [first_receptions] is then the covered count and
    [delivery_max] the completion round.

    The steady-state hot path (arrival draws, admission, queueing,
    relay pumping, reception, completion, expiry) allocates nothing:
    flat [int array]/[Bytes]/[Bigarray] state, interned message ids
    (slot index + generation packed in the payload tag), and
    {!Stats.Quantile} streaming estimators for the latency percentiles.
    A [Gc.minor_words] probe over the post-warmup window is part of the
    {!report} and regression-tested in [test/test_serve.ml].

    Layering: {!Core} is the MAC-independent state machine (drive it
    from anything that can deliver [recv]/[ack] events); {!Sim} is a
    synthetic fixed-latency driver used by the M10 micro-bench and the
    conservation/allocation tests; {!run} glues {!Core} onto the real
    {!Localcast.Mac} stack via its per-round [tick] hook. *)

type policy =
  | Drop_tail  (** a full queue sheds the incoming relay *)
  | Drop_newest
      (** a full queue evicts its newest entry to admit the incoming
          one (oldest-first service order is preserved) *)
  | Source_throttle
      (** like [Drop_tail] for relays, and additionally refuses {e
          admission} of fresh arrivals at a node whose queue is full —
          pushing loss to the edge before it costs pool slots *)

val pp_policy : Format.formatter -> policy -> unit

val policy_to_string : policy -> string

val parse_policy : string -> (policy, string) result
(** ["drop-tail"], ["drop-newest"] or ["source-throttle"], under the
    shared rules of {!Grammar}; {!policy_to_string} is the inverse. *)

type config = {
  queue_cap : int;  (** per-node relay queue bound (≥ 1) *)
  max_inflight : int;  (** slot pool size: admission cap on live messages *)
  ttl : int;
      (** rounds a message may live (≥ 1): admitted at round [r], it
          expires at the first {!Core.tick} at or after round [r + ttl]
          unless completed first *)
  policy : policy;
  ack_deadline : int;
      (** SLO: an ack arriving more than this many rounds after its
          bcast request counts as a miss.  [0] means no deadline in
          {!Core}/{!Sim}; {!run} substitutes the MAC's [f_ack] bound. *)
}

val config :
  ?queue_cap:int ->
  ?max_inflight:int ->
  ?ttl:int ->
  ?policy:policy ->
  ?ack_deadline:int ->
  unit ->
  config
(** Defaults: [queue_cap = 16], [max_inflight = 4096], [ttl = 8192],
    [policy = Drop_tail], [ack_deadline = 0].  Raises [Invalid_argument]
    on out-of-range fields. *)

type report = {
  rounds : int;
  arrivals : int;  (** offered: what the workload generated *)
  admitted : int;  (** granted a pool slot *)
  rejected : int;  (** refused at admission (pool full / throttled) *)
  completed : int;  (** delivered to every node before expiry *)
  expired : int;  (** ttl elapsed first *)
  inflight : int;  (** slots still live at the end *)
  relays : int;  (** bcast requests issued (sources included) *)
  relay_drops : int;  (** relays shed by the backpressure policy *)
  stale_skips : int;
      (** queued relays found dead (completed/expired) at pop time —
          lazy invalidation means shedding costs nothing at completion *)
  acks : int;
  ack_misses : int;  (** acks later than the deadline *)
  first_receptions : int;  (** (message, node) pairs reached, sources too *)
  goodput : float;  (** completions per round *)
  delivery_p50 : float;  (** completion latency percentiles (rounds; *)
  delivery_p99 : float;  (** NaN when nothing completed) *)
  delivery_max : float;
      (** exact maximum completion latency; NaN when nothing completed *)
  ack_p50 : float;
  ack_p99 : float;
  max_queue_depth : int;  (** peak total queued relays, network-wide *)
  mean_queue_depth : float;
  minor_words_per_round : float;
      (** allocation probe over the post-warmup window; NaN when the
          driver did not measure it *)
  audit : string list;
      (** conservation violations; [[]] on every correct run:
          [arrivals = admitted + rejected] and
          [admitted = completed + expired + inflight] must hold
          {e exactly} *)
}

val pp_report : Format.formatter -> report -> unit

(** {1 The MAC-independent state machine} *)

module Core : sig
  (** Live messages form a FIFO in admission order, threaded through
      the slot pool together with the free list, so completion and
      expiry unlink a slot in O(1).  One ttl and strictly increasing
      ticks make admission order the order deadlines fall due: {!tick}
      expires from the oldest end, and no state is sized by the ttl. *)

  type t

  val create : ?metrics:Obs.Metrics.t -> config:config -> n:int -> unit -> t
  (** [metrics] maintains the [serve.*] instruments (see
      [docs/OBSERVABILITY.md]) live: counters per event, gauges at each
      {!tick}, latency distributions in {e bounded} histograms — safe
      for unbounded horizons, allocation-free per event. *)

  val set_send : t -> (node:int -> tag:int -> bool) -> unit
  (** The transmission hook: called with an interned message [tag] when
      [node] should broadcast; returns whether the request was accepted
      (a [false] re-queues the entry at the head).  Wire this to
      {!Localcast.Mac.request} or a synthetic channel before the first
      {!tick}. *)

  val tick : t -> workload:Workload.t -> round:int -> unit
  (** Top-of-round work: expire, oldest first, every live message
      admitted at a round [b] with [b + ttl ≤ round]; admit the
      workload's arrivals for every node; record queue-depth gauges.
      Rounds must strictly increase across calls but may leave gaps: a
      message expires at the first tick at or after round [b + ttl]. *)

  val on_recv : t -> node:int -> round:int -> tag:int -> unit
  (** Deliver an interned message to [node]: first receptions mark
      coverage, complete the message when coverage reaches [n], and
      enqueue a relay (subject to the policy).  Stale tags (the slot
      was freed since, which bumped its generation) are dropped. *)

  val on_ack : t -> node:int -> round:int -> tag:int -> unit
  (** The node's outstanding bcast completed: record ack latency
      against the deadline and pump the node's queue. *)

  val inflight : t -> int

  val queued : t -> int
  (** Total queued relays network-wide. *)

  val report : ?minor_words_per_round:float -> t -> rounds:int -> report
end

(** {1 Synthetic driver (benches and tests)} *)

module Sim : sig
  (** A fixed-latency ring channel under {!Core}: each broadcast is
      delivered to the [degree] ring neighbors after [relay_delay]
      rounds and acknowledged after [ack_delay] rounds.  No MAC, no
      engine — this isolates the serving hot path, so M10 measures and
      the allocation test asserts {e this} loop. *)

  type t

  val create :
    ?metrics:Obs.Metrics.t ->
    config:config ->
    n:int ->
    degree:int ->
    relay_delay:int ->
    ack_delay:int ->
    unit ->
    t
  (** Ring neighbors at offsets ±1..±degree/2.  Requires
      [1 ≤ relay_delay ≤ ack_delay] and even [degree ≥ 2] (with
      [degree ≥ n] truncated to the whole ring). *)

  val core : t -> Core.t

  val round : t -> int

  val step : t -> workload:Workload.t -> unit
  (** One round: deliver due receptions and acks, then {!Core.tick}. *)

  val run : t -> workload:Workload.t -> rounds:int -> ?warmup:int -> unit -> report
  (** [step] in a loop with the [Gc.minor_words] probe bracketing the
      post-[warmup] window (default warmup: [min (rounds/10) 1000]
      rounds). *)
end

(** {1 The full stack} *)

val run :
  ?sink:Obs.Sink.t ->
  ?metrics:Obs.Metrics.t ->
  ?warmup:int ->
  config:config ->
  workload:Workload.t ->
  params:Localcast.Params.t ->
  rng:Prng.Rng.t ->
  dual:Dualgraph.Dual.t ->
  scheduler:Radiosim.Scheduler.t ->
  rounds:int ->
  unit ->
  report
(** Serve the workload over a real {!Localcast.Mac} on [dual] for
    [rounds] rounds: arrivals are injected through the MAC's per-round
    [tick] hook, receptions and acks flow back through its callbacks,
    and a [config.ack_deadline] of [0] is replaced by the MAC's [f_ack]
    bound.  A [Batch] run stops after the first round that ends with
    nothing in flight.  The workload must have been created for the
    dual's node count ([Invalid_argument] otherwise).  [minor_words_per_round] in
    the report covers the whole stack (MAC and engine included), not
    just the serving layer; the serving-layer-only number comes from
    {!Sim.run}.

    Without a [sink] the whole stack's footprint is flat in run length
    too: LBAlg keeps one entry per source a node hears, and the glue
    keeps nothing that grows.  A [sink] adds an {!Localcast.Lb_spec}
    monitor, whose auditor still keeps a list entry per progress
    reception (the report's [progress_latencies]) and one evidence
    window per violation. *)
