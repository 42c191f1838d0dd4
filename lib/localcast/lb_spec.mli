(** Checker for the LB(t_ack, t_prog, ε) specification (paper §4.1): the
    round-record feed of the {!Obs.Audit} monitor.

    Deterministic conditions, enforced on every execution:

    - {e Timely Acknowledgement}: each [bcast(m)_u] is answered by exactly
      one [ack(m)_u] within [t_ack] rounds;
    - {e Validity}: a [recv(m)_u] happens only while some [v ∈ N_{G'}(u)]
      is actively broadcasting [m].  The monitor also counts as validity
      violations the rest of the abstract MAC layer's safety contract
      (§5): a second [recv(m)_u] while [u] stays alive (receive
      uniqueness), and an [ack] of anything but the node's current
      bcast.

    Probabilistic conditions, whose empirical frequency the checker
    reports so trials can estimate the error probability:

    - {e Reliability}: for each bcast, every reliable neighbor of the
      sender emits [recv(m)] no later than the sender's [ack(m)];
    - {e Progress}: partitioning rounds into phases of [t_prog], for each
      (receiver, phase) pair in which some reliable neighbor is actively
      broadcasting throughout the {e entire} phase, the receiver cleanly
      receives at least one data message from an actively-broadcasting
      node during the phase.

    This module is the round-record feed of the {!Obs.Audit} monitor,
    which does the bookkeeping.  {!observe} walks each record once —
    phase boundary, bcast inputs, clean data receptions (qualifying when
    the source is actively broadcasting that message), recv / ack /
    commit outputs, round end — after turning the fault plan's
    transitions for the round into crash and restart observations.  No
    trace is retained, and a round with no bcast, ack or recv allocates
    nothing.

    {e Churn.}  With a [?faults] plan (the one the engine runs under),
    every claim is survivor-relative, as {!Obs.Audit} spells out: a
    crash ends the sender's broadcast and waives its ack, reliability is
    owed to neighbors alive through the bcast's window, progress to
    receivers alive all phase, and a receiver revived with fresh state
    may receive a message again.  Without a plan, everyone survives. *)

type report = Obs.Audit.report = {
  rounds_observed : int;
  validity_violations : int;
  ack_count : int;
  late_ack_count : int;
  missing_ack_count : int;
  max_ack_latency : int;
  reliability_attempts : int;
  reliability_failures : int;
  progress_opportunities : int;
  progress_failures : int;
  progress_latencies : int list;
}
(** Field by field in {!Obs.Audit.report}. *)

val reliability_rate : report -> float
(** Empirical success frequency (1.0 when there were no attempts). *)

val progress_rate : report -> float

type monitor

type record =
  (Messages.msg, Messages.lb_input, Messages.lb_output) Radiosim.Trace.round_record

val monitor :
  ?faults:Faults.Plan.t ->
  dual:Dualgraph.Dual.t ->
  params:Params.t ->
  ?env:Lb_env.t ->
  unit ->
  monitor
(** A monitor feeding a fresh {!auditor} core.  [env] is unused. *)

val observe : monitor -> record -> unit
(** Feed rounds in order, starting at round 0. *)

val finish : monitor -> report
(** Close the monitor and produce the report; a trailing partial phase
    carries no progress obligation.  Idempotent. *)

val audit : monitor -> Obs.Audit.t
(** The core the monitor feeds, for its violations. *)

val params : monitor -> Params.t

val tap : monitor -> Obs.Sink.t -> (record -> unit) -> unit
(** [tap m sink after] makes every later {!observe} emit the protocol
    events it feeds the core into [sink] — [Phase_start] on a phase's
    first round, then [Bcast], [Progress] (first qualifying reception of
    the phase), and [Recv] / [Ack] / [Seed_commit] in node order — and
    then call [after] on the record.  One tap per monitor;
    {!Lb_obs.attach} is the caller. *)

val auditor :
  ?window:int -> dual:Dualgraph.Dual.t -> params:Params.t -> unit -> Obs.Audit.t
(** A fresh core pre-wired for this topology and parameter set:
    [t_ack = Params.t_ack_rounds], [t_prog = Params.t_prog_rounds],
    [delta_bound = params.delta_bound], and [dual]'s graphs G and G'.
    Every monitor feeds one; {!Lb_obs.auditor} is this function. *)

