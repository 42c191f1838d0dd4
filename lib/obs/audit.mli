(** The LB(t_ack, t_prog, ε) spec monitor (paper §4.1): one checker,
    two feeds.

    The monitor keeps the specification's bookkeeping once — who is
    actively broadcasting which message, when each ack is owed and who
    received the message, the open progress phase, seed owners and
    liveness — in int-keyed state of size O(n + outstanding bcasts).
    Two adapters feed its observation API:

    - {!observe}, the {e event} feed: register it with {!Sink.on_event}
      (or replay a JSONL file through it);
    - [Localcast.Lb_spec], the {e record} feed: it walks LBAlg round
      records, turns a fault plan into crash and restart observations,
      and asks {!qualifying} which clean receptions count.

    Either feed yields both outputs: the counts of a {!report} and the
    {!violations}, each flagged as soon as it is detectable:

    - {e Late acknowledgements}: an ack whose latency exceeds [t_ack];
    - {e Missing acknowledgements}: a bcast still unanswered after more
      than [t_ack] rounds — checked at every round end, when its sender
      crashes, and at {!finish} against the rounds that elapsed;
    - {e Progress deadline misses} (needs [t_prog] and [g]): a receiver
      with a reliable neighbor actively broadcasting through the {e
      entire} phase that saw no qualifying reception during it.  A phase
      is judged at the end of its [t_prog]-th round; a phase cut short,
      by the end of the stream or an early [Phase_start], is never
      judged;
    - {e δ-bound breaches} (needs [delta_bound] and [g']): a
      vertex whose closed G'-neighborhood committed to more than
      [delta_bound] distinct seed owners, checked once per phase.

    Event-fed violations carry the monitor's recent events as evidence;
    record-fed ones carry none.

    {e The model.}  A node has at most one outstanding bcast (a second
    one supersedes the first).  It broadcasts actively from its bcast
    round through its ack round, and stops for good when it crashes: a
    restart brings back a process that never received the bcast.  A
    reception qualifies when its source is actively broadcasting that
    very message.

    {e Validity} is the abstract MAC layer's safety contract (§5): LB's
    validity plus receive uniqueness, and acks that answer bcasts.  A
    recv is valid when its source is an actively broadcasting
    G'-neighbour and the receiver has not received that message since
    it was last restarted; an ack is valid when its uid is the node's
    current bcast.

    {e Churn.}  Liveness comes from the feed's crash and restart
    observations, and verdicts are survivor-scoped: a crash waives the
    sender's ack unless its deadline had already passed, reliability is
    owed only to reliable neighbors alive through [\[bcast, ack\]], a
    progress opportunity needs the receiver and a fully active
    neighbor alive all phase, and a receiver revived since its recv of
    a message may receive it anew.  A crash never creates an obligation
    ([docs/FAULTS.md]). *)

type kind =
  | Late_ack of { latency : int }  (** latency > t_ack *)
  | Missing_ack of { bcast_round : int }
      (** unanswered with > t_ack rounds elapsed *)
  | Progress_miss of { phase : int }
      (** opportunity (fully-active reliable neighbor) without a
          qualifying reception *)
  | Delta_breach of { owners : int; bound : int }
      (** distinct committed seed owners in the closed G'-neighborhood
          above the bound *)

type violation = {
  kind : kind;
  node : int;  (** the vertex the obligation belonged to *)
  round : int;  (** the round at which the violation became detectable *)
  detail : string;  (** human-readable one-liner *)
  window : Event.t list;  (** recent events at detection, oldest first *)
}

val pp_violation : Format.formatter -> violation -> unit
(** The [detail] line; print [window] yourself for the full context. *)

type report = {
  rounds_observed : int;
  validity_violations : int;
      (** recvs with no actively broadcasting G'-source (needs [g']),
          repeated recvs of a source's active message by a receiver
          alive since its first recv of it, and acks whose uid is not
          the node's current bcast *)
  ack_count : int;
  late_ack_count : int;  (** acks later than t_ack after their bcast *)
  missing_ack_count : int;  (** bcasts never answered within the run *)
  max_ack_latency : int;
  reliability_attempts : int;  (** acked bcasts *)
  reliability_failures : int;
      (** acked bcasts missed by some surviving reliable neighbor *)
  progress_opportunities : int;
      (** (receiver, phase) pairs with a reliable neighbor active
          throughout the phase *)
  progress_failures : int;  (** opportunities with no qualifying reception *)
  progress_latencies : int list;
      (** per successful opportunity, phase by phase and receiver by
          receiver, the round offset of the first qualifying reception —
          the raw data behind experiment E5's percentiles *)
}

type t

val create :
  ?window:int ->
  ?t_prog:int ->
  ?delta_bound:int ->
  ?g:Dualgraph.Graph.t ->
  ?g':Dualgraph.Graph.t ->
  t_ack:int ->
  unit ->
  t
(** [window] (default 64) bounds the evidence ring.  [g] is the reliable
    graph G (progress with [t_prog], and reliability) and [g'] the graph
    G' (validity, and δ with [delta_bound]); the monitor reads them in
    place.  Without a graph the per-node state grows with the
    node ids observed.  [Localcast.Lb_obs.auditor] derives all of these
    from a topology and a parameter set. *)

(** {1 Observations}

    Within a round: crashes and restarts, [phase_start] on a phase's
    first round, bcasts, qualifying receptions, recvs / acks / seed
    commits, and [round_end] last — the order of the engine's stream and
    of the record walk. *)

val bcast : t -> round:int -> node:int -> uid:int -> unit
val qualifying : t -> src:int -> uid:int -> bool
(** [src] is actively broadcasting its message [uid] right now. *)

val progress : t -> round:int -> node:int -> bool
(** A qualifying reception at [node]; [true] iff it is the node's first
    of the open phase. *)

val recv : t -> round:int -> node:int -> src:int -> uid:int -> unit
val ack : t -> round:int -> node:int -> uid:int -> int
(** Returns the latency since the bcast (0 for no outstanding one). *)

val seed_commit : t -> node:int -> owner:int -> unit
val crash : t -> round:int -> node:int -> unit
val restart : t -> round:int -> node:int -> unit
val phase_start : t -> round:int -> phase:int -> unit
val round_end : t -> round:int -> unit

val finish : t -> unit
(** Close the stream: judge still-owed acks against the rounds that
    elapsed.  Idempotent; further {!observe} calls are errors. *)

val observe : t -> Event.t -> unit
(** The event feed: one event, as the matching observation.  A
    [Progress] event is taken as a qualifying reception and an [Ack]'s
    latency is recomputed; other structural events are evidence only.
    Events must arrive in round order with [Round_end] last in its
    round, as the engine guarantees. *)

(** {1 Outputs} *)

val report : t -> report
val violations : t -> violation list
(** In detection order; callable before {!finish} for live monitoring. *)

val rounds_seen : t -> int
(** Last round seen + 1. *)

val seed_owners : t -> int -> int
(** Distinct committed seed owners in the node's closed G'-neighborhood
    — the δ occupancy (0 without [g']). *)
