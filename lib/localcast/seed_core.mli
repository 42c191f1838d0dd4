(** The SeedAlg state machine (paper §3.2), reusable across hosts.

    SeedAlg runs standalone (wrapped by {!Seed_alg} into a process) and as
    the preamble subroutine of every LBAlg phase ({!Lb_alg}).  Both hosts
    drive the same machine: call {!decide_action} at each local round to
    learn whether to transmit, feed receptions to {!absorb}, and call
    {!finalize} once the [Params.seed_duration] rounds have elapsed to
    apply the end-of-algorithm default decision.

    Timeline, for local rounds [0 .. duration-1] with phase
    [h = local_round / phase_len + 1]:

    - at the first round of phase [h], an [active] node elects itself
      leader with probability [2^{-(phases - h + 1)}] (so the sequence
      1/Δ, 2/Δ, …, 1/4, 1/2) and, if elected, decides on its own initial
      seed immediately;
    - a leader transmits [(i, s)] w.p. [broadcast_prob] in every round of
      its phase, then goes inactive;
    - an active non-leader listens; on receiving some [(j, s)] it decides
      [(j, s)] and goes inactive;
    - a node still active after the last phase decides its own seed. *)

type t

type status =
  | Active
  | Leader of int  (** the phase (1-based) in which leadership was won *)
  | Inactive

val create : Params.seed -> id:int -> rng:Prng.Rng.t -> t
(** The initial seed is a uniform element of [{0,1}^kappa]: the next
    [kappa] draws of [rng].  [create] advances [rng] past them at once
    ({!Prng.Rng.skip}), so [rng]'s later draws are those an eager draw
    would leave, but it builds the seed only on first use — leader
    election, the default decision in {!finalize}, or {!initial_seed} —
    from a copy of [rng] taken before the skip.  A node that adopts a
    neighbour's seed never builds its own. *)

val initial_seed : t -> Prng.Bitstring.t
(** The node's own seed, built on the first call. *)

val status : t -> status

val duration : t -> int
(** Total number of local rounds the machine needs. *)

val decide_action : t -> local_round:int -> Messages.msg Radiosim.Process.action
(** Must be called exactly once per local round, in order, with
    [local_round] in [\[0, duration)].  Performs the phase-start leader
    election when [local_round] opens a phase. *)

val absorb : t -> local_round:int -> Messages.msg option -> unit
(** Feed the round's reception result.  Non-seed messages are ignored. *)

val take_event : t -> Messages.seed_announcement option
(** The decision made during the current round, if any — emitted once;
    subsequent calls return [None] until another decision happens.
    (Decisions happen at most once per machine.) *)

val finalize : t -> unit
(** Apply the default decision (own id, own seed) if still active.  Call
    after the machine's last round. *)

val decision : t -> Messages.seed_announcement option
(** The committed (owner, seed), once decided. *)
