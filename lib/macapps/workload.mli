(** Open-loop arrival workloads for the multi-message serving engine.

    A workload assigns every (node, round) pair a number of fresh
    message {e arrivals} — the offered load the serving layer must
    admit, queue or shed.  Three open-loop shapes and one closed one:

    - [Poisson]: each node draws an independent Poisson count with the
      network rate split evenly — the memoryless baseline.
    - [Bursty]: a per-node on/off modulator (geometric on and off period
      lengths) gates a Poisson process whose on-rate is scaled up so the
      {e time-averaged} offered load still equals [rate] — the same
      load, concentrated into bursts.
    - [Hotspot]: a seed-chosen fraction of nodes carries a
      disproportionate share of the offered load (rate skew), the rest
      split the remainder — the many-users-few-talkers shape.
    - [Batch]: one message per listed source, all at round 0 — the
      flood ([batch:S]) and the multi-message broadcast, which
      {!Serve.run} runs until nothing is in flight.

    Determinism is the point: arrivals at node [v] are a pure function
    of [(seed, v, round)] — per-node streams are derived independently
    (SplitMix-style finalizer), so the plan is {e order-independent}:
    any interleaving of nodes, any split of nodes across domains, and
    any round skipping produce bit-identical counts (QCheck-enforced in
    [test/test_serve.ml]).  The only constraint is per-node round
    monotonicity, which the bursty modulator's cursor needs.

    {!arrivals} allocates nothing: all state lives in preallocated flat
    arrays, and the draws use an inline 63-bit finalizer rather than a
    boxed [int64] generator — the serving loop calls it every round. *)

type process =
  | Poisson of { rate : float }
      (** [rate]: expected arrivals per round, whole network. *)
  | Bursty of { rate : float; on_mean : float; off_mean : float }
      (** Per-node on/off gating with geometric period lengths of the
          given means (rounds, ≥ 1); time-averaged offered load is
          [rate] per round network-wide. *)
  | Hotspot of { rate : float; hot_fraction : float; hot_share : float }
      (** About [hot_fraction] of nodes (seed-chosen, at least one)
          carry [hot_share] of the offered load. *)
  | Batch of { sources : int list }
      (** One arrival per listed source at round 0 (a source may repeat
          and then originates several messages); none afterwards. *)

val pp_process : Format.formatter -> process -> unit

val parse : string -> (process, string) result
(** CLI grammar (docs/LOAD.md), under the shared rules of {!Grammar}
    (the sources are integers, the other fields numbers):
    ["poisson:RATE"], ["bursty:RATE:ON_MEAN:OFF_MEAN"],
    ["hotspot:RATE:HOT_FRACTION:HOT_SHARE"], ["batch:S1,S2,…"].
    Parameters are validated the same way {!create} validates them,
    except that a batch source is checked against the node count only
    by {!create}: [batch:9] parses, and [create ~n:8] rejects it. *)

val process_to_string : process -> string
(** Inverse of {!parse}: every number prints as
    {!Grammar.float_to_string}, so it reads back exactly. *)

type t

val create : process:process -> n:int -> seed:int -> unit -> t
(** Instantiate for [n] nodes.  Raises [Invalid_argument] on
    negative/non-finite rates, means < 1, fractions outside
    [\[0, 1\]], or a batch source outside [\[0, n)]. *)

val process : t -> process

val n : t -> int

val arrivals : t -> node:int -> round:int -> int
(** Arrival count for the pair.  Rounds must be non-decreasing per node
    ([Invalid_argument] otherwise); across nodes any order is fine and
    changes nothing.  Random counts are capped at 64 per (node, round)
    so the draw budget is fixed.  O(expected count), allocation-free. *)

val hot : t -> node:int -> bool
(** Whether the node is in the hotspot set ([false] for the other
    processes). *)
