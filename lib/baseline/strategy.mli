(** The back-off strategy family behind one shared signature.

    The contention-management literature the paper argues against —
    Bar-Yehuda–Goldreich–Itai Decay, fixed-probability Aloha, windowed
    exponential back-off, the re-seeding sawtooth of the contention
    bounds line of work (arXiv 1803.02216, 1206.0154) — is a space of
    {e transmit-probability schedules} differing only in how the
    schedule evolves and what feedback (if any) resets it.  This module
    makes that space first-class: a strategy is a pure description
    ({!t}), instantiated per node into a {!state} exposing a per-round
    transmit decision ({!decide}) and a collision/silence feedback hook
    ({!feedback}).  The legacy {!Decay}, {!Uniform} and {!Round_robin}
    baselines are thin wrappers over this interface (round-for-round
    identical to their pre-refactor implementations — the test suite
    keeps frozen copies as oracles), and the tournament runner
    ([bench/exp_tournament.ml], experiment E25) sweeps the whole family
    against the adversary zoo.

    {b Determinism contract} (the {!Macapps.Workload} contract, enforced
    by QCheck): a node's transmit schedule is a pure function of
    (strategy, seed, node, round, feedback history).  Each node draws
    from its own counter-mode stream ({!node_rng}), so schedules are
    independent of the order nodes are queried in and of any
    trial-parallelism split; {!decide} consumes the stream once per
    round, in strictly increasing round order. *)

type t =
  | Fixed of { p : float }
      (** Transmit with constant probability [p] every round — the
          Aloha-style baseline; with [p = 1/Δ] it is the optimal static
          choice against known contention [Δ]. *)
  | Decay of { levels : int }
      (** The BGI fixed geometric ladder: in round [t] transmit with
          probability [2^-(t mod levels + 1)].  Schedule-driven; ignores
          feedback.  This is exactly the legacy {!Decay} baseline. *)
  | Decay_restart of { levels : int }
      (** A descending ladder with feedback re-seeding: the level starts
          at 0 (probability 1/2), descends one step per round and parks
          at [levels - 1]; decoding {e any} message ({!feedback} with
          [heard = true]) restarts the ladder from the top, because a
          successful decode means the local contention estimate the
          ladder had backed off for is stale. *)
  | Sawtooth of { levels : int }
      (** The re-seeding sweep: round [t] transmits with probability
          [2^-(levels - t mod levels)], i.e. each epoch sweeps the whole
          probability range from [2^-levels] {e up} to [1/2] and then
          drops back.  Late arrivals are caught by the next sweep at
          every density — the sawtooth idea from the contention-bounds
          literature.  Schedule-driven; ignores feedback. *)
  | Backoff of { max_exp : int }
      (** Log-window binary exponential back-off: window [k]
          (0-indexed) lasts [2^k] rounds, during which the node
          transmits each round with probability [2^-k]; after the
          window expires [k] advances (saturating at [max_exp]), so
          after [W] rounds the window index has grown only
          logarithmically in [W].  Decoding a message resets the
          window to [k = 0]. *)
  | Slotted of { slots : int }
      (** TDMA round-robin: node [v] transmits exactly in rounds
          [t ≡ v mod slots].  Deterministic, contention-free with
          [slots >= n] — and non-local: it needs a global bound on the
          id space, which is the documented reason the paper rejects
          it. *)

val validate : t -> (unit, string) result
(** Parameter check shared by {!parse} and {!init}: [p] within [0, 1]
    (NaN rejected), [1 <= levels <= 62], [0 <= max_exp <= 62] (so every
    probability [2^-k] stays an exact OCaml int power), [slots >= 1]. *)

val parse : string -> (t, string) result
(** Spec grammar, one strategy per string, under the shared rules of
    {!Grammar} (P a number, the others integers):

    {v
    fixed:P | decay:L | decay-restart:L | sawtooth:L
            | backoff:K | slotted:N
    v}

    e.g. ["fixed:0.125"], ["decay:5"], ["backoff:6"].  {!to_spec} is the
    canonical inverse. *)

val to_spec : t -> string
(** Canonical spec string; [parse (to_spec t) = Ok t]. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_spec}. *)

val name : t -> string
(** The family name alone ([“fixed”], [“decay”], …) for table labels. *)

val levels_for : delta':int -> int
(** The standard ladder depth against maximum potential degree [Δ']:
    ⌈log₂ Δ'⌉ + 1 levels — re-exported by {!Decay.levels_for}. *)

val zoo : delta':int -> n:int -> t list
(** The canonical tournament arms for a topology with [n] nodes and
    maximum potential degree [delta']: [Fixed (1/max 2 delta')] and,
    with [l = levels_for ~delta'], [Decay l], [Decay_restart l],
    [Sawtooth l], [Backoff l] and [Slotted n]. *)

(** {1 Per-node runtime state} *)

type state

val init : t -> rng:Prng.Rng.t -> node:int -> state
(** Fresh per-node state.  [rng] is the node's private stream (use
    {!node_rng} for the counter-mode derivation); [node] feeds the
    {!Slotted} slot discipline and must be [>= 0].
    @raise Invalid_argument if {!validate} rejects the strategy or
    [node < 0]. *)

val spec : state -> t

val decide : state -> round:int -> bool
(** The round's transmit decision.  Rounds must be presented in
    strictly increasing order starting from a round [>= 0]; randomized
    strategies consume exactly one draw from the node's stream per call
    (none when the scheduled probability is 0 or 1, matching
    {!Prng.Rng.bernoulli}).
    @raise Invalid_argument on a non-monotone round. *)

val feedback : state -> round:int -> heard:bool -> unit
(** The collision/silence feedback hook: [heard = true] means the node
    decoded a message this round, [heard = false] means it heard
    nothing — silence and collision are indistinguishable in the model
    (no collision detection), and a transmitting node hears nothing.
    Pure state update; consumes no randomness, so schedule-driven
    strategies are bit-unaffected by it. *)

val node_rng : ?round:int -> seed:int -> node:int -> unit -> Prng.Rng.t
(** The counter-mode per-node stream: a SplitMix generator keyed by
    [mix(seed·A + (node+1)·B + round·C)] — a pure function of its
    arguments, so any subset of nodes materialized in any order (or
    split across domains) draws identical streams.  [round] (default 0)
    keys the fresh stream of a node {e revived} at that round by a
    fault plan; revival rounds are always [>= 1], so revived streams
    never collide with initial ones. *)

(** {1 Process builders} *)

val sender :
  t ->
  message:Localcast.Messages.payload ->
  rng:Prng.Rng.t ->
  node:int ->
  (Localcast.Messages.msg, unit, unit) Radiosim.Process.node
(** A perpetually active sender for [message]: transmits whenever
    {!decide} says so, and feeds every reception (or its absence) back
    through {!feedback}.  The legacy baselines are this builder with
    the corresponding strategy.  A round that goes {e backwards}
    restarts the schedule (fresh {!state}) while continuing the same
    random stream — so a sender object reused across engine runs
    behaves like the pre-refactor baselines did. *)

val relay :
  t ->
  ?initial:Localcast.Messages.payload ->
  ?budget:int ->
  ?window:int ->
  rng:Prng.Rng.t ->
  node:int ->
  unit ->
  (Localcast.Messages.msg, unit, unit) Radiosim.Process.node
(** The tournament's relay discipline.  A node starts silent unless it
    [initial]ly holds a payload; on first decoding a data payload it
    acquires it and begins relaying it on the strategy's schedule,
    counting {e local} rounds from its acquisition (round 0 of the
    schedule is the round after first reception; an initial holder
    starts at engine round 0).  [budget], when given, is the
    broadcast's total active window in {e engine} rounds: every relay
    falls silent from round [budget] on — the a-priori window every
    ack-free baseline must fix in advance (experiment E20's collapse
    under churn is exactly this window expiring before churned
    receivers return, and the relay with [initial] and [budget] is
    draw-for-draw E20's budgeted sender).  [window] (≥ 1), when given,
    silences each relay from local round [window] on: [Decay {levels}]
    relays with [window = e · levels] are the raw physical-layer flood
    with [e] relay epochs (experiment E18).  Both bounds are checked
    before {!decide}, so no draw is taken outside them, and whichever
    closes first silences the relay.  Feedback flows only while the
    relay is active; a
    crashed-and-revived relay (fresh state via {!node_rng} with the
    revival round) has lost the message and starts silent again. *)
