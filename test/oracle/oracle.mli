(** Test-only oracles: frozen reference implementations the property
    suite holds the production code to.  Linked by the test suite and
    by the micro-benchmarks, never by the library. *)

val run_reference :
  ?observer:(('msg, 'input, 'output) Radiosim.Trace.round_record -> unit) ->
  ?stop:(('msg, 'input, 'output) Radiosim.Trace.round_record -> bool) ->
  dual:Dualgraph.Dual.t ->
  scheduler:Radiosim.Scheduler.t ->
  nodes:('msg, 'input, 'output) Radiosim.Process.node array ->
  env:('input, 'output) Radiosim.Env.t ->
  rounds:int ->
  unit ->
  int
(** The listener-centric resolver: every listener scans its full
    topology neighborhood, querying the scheduler per incident edge —
    O(n·Δ') per round.  Same observable semantics as
    {!Radiosim.Engine.run} (the property suite asserts bit-identical
    traces on random configurations); the M5b micro-benchmark is the
    baseline it sets.  Deliberately takes no event sink, faults or
    reception model: the reference semantics stay frozen. *)

(** The single-message flood over the abstract MAC layer, frozen as it
    stood before flooding moved onto {!Macapps.Serve} over a one-source
    batch (its observability hooks and tag option dropped; neither
    touched the flood).  A source relays at round 0; every other node
    relays once, on first reception; the run stops once all nodes are
    covered. *)
module Flood : sig
  type result = {
    covered : bool array;
    covered_count : int;
    completion_round : int option;
    relays : int;
    rounds_executed : int;
  }

  val run :
    params:Localcast.Params.t ->
    rng:Prng.Rng.t ->
    dual:Dualgraph.Dual.t ->
    scheduler:Radiosim.Scheduler.t ->
    source:int ->
    max_rounds:int ->
    unit ->
    result
end

(** The physical-layer Decay flood, frozen as it stood before it became
    a network of windowed {!Baseline.Strategy.relay} nodes: each covered
    node relays for [relay_epochs] Decay epochs from the round after its
    first reception (the source from round 0), with node streams split
    from [rng] in node order. *)
module Flood_decay : sig
  type result = {
    covered : bool array;
    covered_count : int;
    completion_round : int option;
    rounds_executed : int;
  }

  val run :
    rng:Prng.Rng.t ->
    dual:Dualgraph.Dual.t ->
    scheduler:Radiosim.Scheduler.t ->
    source:int ->
    relay_epochs:int ->
    max_rounds:int ->
    unit ->
    result
end

(** The record-based SplitMix64 generator and its typed draws, frozen as
    they stood before {!Prng.Rng} took over the arithmetic with an
    unboxed 8-byte state, together with the counter-mode key formulas
    each user spelled out in [Int64] arithmetic and [Macapps.Workload]'s
    private 63-bit mixer.  The property suite holds every stream,
    stream position and keyed hash of {!Prng.Rng} to these. *)
module Rng : sig
  type t

  val create : int64 -> t
  val split : t -> t
  val copy : t -> t
  val mix : int64 -> int64
  val bits64 : t -> int64
  val bool : t -> bool
  val bits : t -> int -> int
  val int : t -> int -> int
  val int_in_range : t -> min:int -> max:int -> int
  val float : t -> float -> float
  val bernoulli : t -> float -> bool
  val geometric_trial : t -> int -> bool
  val shuffle : t -> 'a array -> unit

  val scheduler_hash : seed:int -> round:int -> edge:int -> int64
  (** [Scheduler.bernoulli]'s per-edge hash of (round, edge, seed). *)

  val sparse_round_stream : seed:int -> round:int -> t
  (** [Scheduler.bernoulli_sparse]'s per-round generator. *)

  val node_rng : seed:int -> node:int -> round:int -> t
  (** [Strategy.node_rng]'s per-node stream. *)

  val reviver_rng : seed:int -> node:int -> round:int -> t
  (** [Service.reviver]'s stream for a node revived at [round]. *)

  val churn_hash : seed:int -> node:int -> int64
  (** [Faults.Plan.churn]'s per-node hash. *)

  val workload_mix : int -> int
  (** [Macapps.Workload]'s 63-bit finalizer. *)
end
