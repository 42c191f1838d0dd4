(** Deterministic fault plans: crash/restart churn and jam windows.

    A plan is a pure function of its construction parameters — given the
    same seed it describes the same faults at any domain count, which keeps
    {!Stats.Experiment} trials bit-identical under parallel execution.  The
    engine consults the plan each round:

    - a node whose crash round has arrived is {e dead}: it neither
      transmits nor receives, its environment is not polled for inputs and
      its process is not stepped;
    - a dead node whose restart round arrives is {e revived}: the engine
      swaps in a fresh process (fresh SeedAlg state — no memory of the
      pre-crash incarnation survives);
    - a node inside one of its {e jam windows} still runs (its process may
      decide to transmit and is charged for doing so) but nothing reaches
      the air: the transmission is suppressed before collision resolution,
      invisible to every listener and to adaptive adversaries.

    Each node crashes at most once.  [crash = max_int] means "never
    crashes"; [restart = max_int] means "never restarts" (crash is
    permanent).  The dead interval of a node is [\[crash, restart)] in
    engine rounds.

    Plans are consumed through a {!cursor} by {!Radiosim.Engine.run} and
    by {!Localcast.Lb_spec}, which turns the transitions into the crash
    and restart observations of the {!Obs.Audit} spec monitor; drivers
    judge survivors with {!alive} / {!alive_through}. *)

type t

type event = Crash | Restart

(** {1 Construction} *)

val empty : n:int -> t
(** The plan with no faults over [n] nodes.  Running the engine with an
    empty plan is trace-identical to running it with no plan at all. *)

val make :
  n:int ->
  ?crashes:(int * int) list ->
  ?restarts:(int * int) list ->
  ?jams:(int * int * int) list ->
  unit ->
  t
(** [make ~n ~crashes ~restarts ~jams ()] builds an explicit plan.

    [crashes] lists [(node, round)] pairs, at most one per node, with
    [round >= 0].  [restarts] lists [(node, round)] pairs; each restarted
    node must also crash, strictly earlier.  [jams] lists
    [(node, from, until)] half-open suppression windows [\[from, until)];
    a node may have several, but they must not overlap.

    @raise Invalid_argument on out-of-range nodes, duplicate entries,
    restarts without (or not after) a crash, or malformed/overlapping jam
    windows. *)

val churn :
  seed:int ->
  n:int ->
  rounds:int ->
  rate:float ->
  ?downtime:int ->
  ?protect:int list ->
  unit ->
  t
(** [churn ~seed ~n ~rounds ~rate ()] derives a crash plan from [seed] via
    SplitMix: each node independently draws its crash round from the
    geometric distribution with per-round hazard [rate] (so a node is
    still up at round [r] with probability [(1 - rate)^r]); draws landing
    at or beyond [rounds] mean the node never crashes.  Crashes happen at
    round 1 or later, so round 0 always has the full population.

    [?downtime] gives every crashed node a restart [downtime] rounds after
    its crash; omitted, crashes are permanent.  [?protect] lists nodes
    exempt from churn (e.g. a designated sender under measurement).

    The per-node streams are derived as [mix(seed · A + node · B)], never
    from a shared sequential generator, so the plan is independent of
    iteration order and stable under any trial-parallelism split.

    @raise Invalid_argument unless [0 <= rate < 1] (NaN included) and
    [downtime > 0]. *)

val of_spec :
  seed:int -> n:int -> rounds:int -> string -> (t, string) result
(** [of_spec ~seed ~n ~rounds spec] parses the CLI fault grammar, under
    the shared rules of {!Grammar} (RATE a number, the others integers):

    {v
    SPEC    := clause (';' clause)*
    clause  := 'crash:'   NODE '@' ROUND
             | 'restart:' NODE '@' ROUND
             | 'jam:'     NODE '@' FROM '-' UNTIL
             | 'churn:'   RATE [',' DOWNTIME]
             | (blank)
    v}

    e.g. ["crash:3@10;restart:3@40;jam:7@0-25"] or ["churn:0.002,120"].
    At most one [churn] clause; it derives crash/restart rounds from
    [seed] (see {!churn}) for every node without an explicit [crash]
    clause.  The clauses then build the plan through {!make} (and
    {!churn}'s checks), whose [Invalid_argument] is returned as
    [Error]. *)

(** {1 Queries} *)

val n : t -> int
(** Number of nodes the plan covers (must match the engine's vertex
    count). *)

val is_empty : t -> bool
(** [true] iff the plan contains no crash and no jam window. *)

val alive : t -> node:int -> round:int -> bool
(** [alive t ~node ~round] is [false] iff [round] falls in the node's dead
    interval [\[crash, restart)]. *)

val alive_through : t -> node:int -> from:int -> until:int -> bool
(** [alive_through t ~node ~from ~until] is [true] iff the node is alive
    at every round of the inclusive window [\[from, until\]] — the
    survivor predicate used to scope [t_ack]/[t_prog] claims. *)

val jammed : t -> node:int -> round:int -> bool
(** [true] iff [round] falls inside one of the node's jam windows. *)

val has_jams : t -> bool
(** [true] iff the plan contains at least one jam window.  Engines use
    this to skip the per-transmitter {!jammed} probe entirely on
    jam-free plans. *)

val crash_round : t -> int -> int option
(** [crash_round t node] is the node's crash round, if it ever crashes. *)

val restart_round : t -> int -> int option
(** [restart_round t node] is the node's restart round, if any. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: fault counts and the first few scheduled events. *)

(** {1 Engine-facing transition stream} *)

type cursor
(** Mutable iteration state over the plan's (round, node, event)
    transitions in ascending round order.  One cursor per engine run. *)

val cursor : t -> cursor

val apply : cursor -> round:int -> (int -> event -> unit) -> unit
(** [apply cur ~round f] calls [f node event] for every transition
    scheduled at a round [<= round] that the cursor has not yet emitted,
    in ascending (round, node) order.  Driving it with consecutive rounds
    — as the engine does — yields exactly the transitions of each round,
    in order. *)
