(** LBAlg: the local broadcast algorithm (paper §4.2).

    Rounds are partitioned into phases of [Ts + Tprog] rounds.  Each phase
    opens with a SeedAlg(ε₂) preamble in which every node — sender or
    receiver — participates; the committed seed supplies the {e shared}
    random bits for the phase's body rounds.  During a body round a node
    in sending state:

    + consumes [d] shared bits; it is a {e participant} iff all are zero
      (probability ≈ 1/(r² log(1/ε₂))) — nodes that committed the same
      seed make the same choice, so whole seed-groups participate or
      abstain together, restoring independence from the oblivious link
      schedule;
    + if a non-participant, listens;
    + if a participant, consumes [level_draws × level_bits] shared bits
      to pick a uniform probability level [b ∈ \[log Δ\]] (fixed-budget
      rejection sampling — see {!Params.t.level_draws}), then flips [b]
      {e local} fair coins and transmits its message iff all landed zero
      (probability [2^{-b}]).

    A node in receiving state listens through the body.  Every clean
    reception of a not-previously-seen message yields a [Recv] output.
    A [bcast(m)] input puts the node into sending state from the next
    phase boundary, for [Tack] full phases, after which it emits [Ack m]
    at the phase's last round and returns to receiving.

    {b Receive uniqueness.}  A node keeps one entry per source it hears
    — the last message heard from it — so its state is O(|N_G'(u)|),
    however long the run.  A clean reception yields [Recv m] unless [m]
    equals its source's entry.  That decides "heard before" exactly
    because of two constraints of the environment (§4.1): a message is
    never bcast twice, and a node waits for [ack(m)] before its next
    [bcast].  A sender transmits [m] only in [m]'s sending phases, so a
    node hears each source's messages in bcast order and never hears
    [m] again once it has heard a later one.

    With [Params.seed_refresh = k > 1], only every k-th phase carries a
    preamble (§4.2's closing remark); the other phases are pure body and
    the committed seed is sized to last the whole cycle.

    {b Cost.}  Only a sender reads the shared bits.  A receiving node's
    body round is a listen that touches neither its seed cursor nor its
    generator; it counts the rounds it skipped, and a node promoted to
    sending mid-cycle (possible only when [seed_refresh > 1]) replays
    exactly those takes before its first body step, so every member of
    a seed group still reads the same bits in the same round.  A body
    round therefore costs O(1) per listener and O(bits per round) per
    sender.  Under the default {!Radiosim.Scheduler.bernoulli} link
    scheduler the engine then resolves only the transmitters' incident
    edges; with a metrics registry attached, its [engine.active_edges]
    and [scheduler.edges_resolved] counters still describe each
    resolved round's full activation set, at O(m) per such round. *)

type seed_source =
  | Agreement
      (** the paper's algorithm: run SeedAlg in each phase preamble *)
  | Oracle of Prng.Rng.t
      (** ablation: a magical global seed service hands every node the
          {e same} fresh seed at each preamble (drawn from the given
          shared generator).  The phase structure — including the
          preamble rounds, spent idle — is kept identical, so comparing
          against [Agreement] isolates the {e quality} cost of loose
          coordination (several seed groups per neighborhood instead of
          one), not its time cost.  A node revived mid-cycle (fresh
          state, as {!Service.reviver} builds it) takes the cycle's
          seed with its cursor where the cycle's senders stand, so the
          seed stays global under churn.  Used by experiment E14. *)

val node :
  ?seed_source:seed_source ->
  Params.t ->
  id:int ->
  rng:Prng.Rng.t ->
  (Messages.msg, Messages.lb_input, Messages.lb_output) Radiosim.Process.node

val network :
  ?seed_source:seed_source ->
  Params.t ->
  rng:Prng.Rng.t ->
  n:int ->
  (Messages.msg, Messages.lb_input, Messages.lb_output) Radiosim.Process.node array
(** One node per vertex, ids [0..n-1], independent split RNGs.  All
    nodes share the given [seed_source] (default [Agreement]). *)

val phase_of_round : Params.t -> int -> int
(** Which phase (0-based) a global round belongs to. *)

val is_preamble_round : Params.t -> int -> bool
(** Whether a global round falls inside a SeedAlg preamble. *)
