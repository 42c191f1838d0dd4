(** The one round core behind {!Engine.run}, {!Engine.run_adaptive} and
    {!Tiled.run} (private to the library).

    Each round runs three phases once per tile — decide (inputs, then
    transmit/listen decisions), resolve (the dual-graph push with halo
    outboxes, or the SINR slot scan) and absorb (deliveries and process
    outputs) — while the calling domain serializes everything between
    phases in ascending node order.  [tiles <= 1] is the sequential
    engine: no tiling state, no domain pool, every phase a direct call. *)

(** Where the round's active unreliable edges come from.  An oblivious
    scheduler ignores the transmission vector; an adaptive adversary is
    consulted once per (round, edge) after seeing it. *)
type source = Oblivious of Scheduler.t | Adaptive of Adaptive.t

val run :
  who:string ->
  tiles:int ->
  source:source ->
  ?observer:(('msg, 'input, 'output) Trace.round_record -> unit) ->
  ?stop:(('msg, 'input, 'output) Trace.round_record -> bool) ->
  ?sink:Obs.Sink.t ->
  ?metrics:Obs.Metrics.t ->
  ?faults:Faults.Plan.t ->
  ?revive:(node:int -> round:int -> ('msg, 'input, 'output) Process.node) ->
  ?reception:Reception.t ->
  dual:Dualgraph.Dual.t ->
  nodes:('msg, 'input, 'output) Process.node array ->
  env:('input, 'output) Env.t ->
  rounds:int ->
  unit ->
  int
(** Runs up to [rounds] rounds over [tiles] tiles (at most the vertex
    count) and returns the number executed; the semantics are
    {!Engine.run}'s.  [who] prefixes [Invalid_argument] messages. *)
