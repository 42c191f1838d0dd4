(** SplitMix64: a fast, splittable, deterministic pseudo-random generator.

    This is the generator of Steele, Lea and Flood ("Fast splittable
    pseudorandom number generators", OOPSLA 2014), implemented from scratch.
    It is the randomness substrate for every simulation in this repository:
    both the algorithms' coin flips and the generation of topologies and
    link schedules.  Determinism matters here — an execution is a pure
    function of (configuration, seed), which is exactly the paper's notion
    of fixing a configuration and then considering the induced execution
    tree.

    [next] advances the state and produces 64 pseudo-random bits; [split]
    derives an independent stream, which we use to give every node, the
    scheduler and the environment their own generators without
    cross-contamination.

    The arithmetic lives in {!Rng}, which keeps the state in 8 raw bytes
    and inlines the step into its draws so they allocate nothing; this
    module is a re-export of {!Rng}'s generator operations (a [t] here is
    an {!Rng.t}) and holds no arithmetic of its own.  It remains for
    callers that name the generator directly, such as the benchmark's
    input-seed derivation. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator from a 64-bit seed. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)

val next : t -> int64
(** [next t] advances [t] and returns 64 fresh pseudo-random bits. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose output
    stream is (statistically) independent of the remainder of [t]'s. *)

val copy : t -> t
(** [copy t] duplicates the current state; both copies then produce the
    same stream.  Used by tests to check determinism. *)

val mix : int64 -> int64
(** [mix z] is the 64-bit finalizer ({!Rng.mix}). *)
