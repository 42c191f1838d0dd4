(** Execution traces.

    The engine can report, for every round, the environment inputs, who
    transmitted what, what each node cleanly received (or ⊥), and the
    outputs each node emitted.  Specification checkers
    ({!Localcast.Seed_spec}, {!Localcast.Lb_spec}) are written against
    these records.

    The engine reuses one set of per-round arrays for the whole run: a
    record handed to an [observer] or [stop] lends them only for the
    duration of that call, and the next round overwrites them.  An
    observer that keeps a record past the call must copy its arrays, as
    {!recorder} does.

    Recording a full trace costs memory proportional to [rounds × n];
    long sweeps instead pass a streaming observer to the engine and keep
    nothing. *)

type ('msg, 'input, 'output) round_record = {
  round : int;
  inputs : 'input list array;  (** per node, environment inputs this round *)
  actions : 'msg Process.action array;  (** per node, this round's action *)
  delivered : 'msg option array;
      (** per node: [Some m] for a clean reception, [None] for ⊥ *)
  outputs : 'output list array;  (** per node, outputs emitted this round *)
}

type ('msg, 'input, 'output) t

val recorder :
  unit ->
  ('msg, 'input, 'output) t * (('msg, 'input, 'output) round_record -> unit)
(** A fresh trace plus the observer that appends to it.  The observer
    stores a copy of each record's four arrays, so the trace outlives
    the engine's reuse of them. *)

val length : ('msg, 'input, 'output) t -> int
(** Number of recorded rounds. *)

val get : ('msg, 'input, 'output) t -> int -> ('msg, 'input, 'output) round_record

val iter :
  (('msg, 'input, 'output) round_record -> unit) -> ('msg, 'input, 'output) t -> unit

val fold :
  ('acc -> ('msg, 'input, 'output) round_record -> 'acc) ->
  'acc ->
  ('msg, 'input, 'output) t ->
  'acc

val outputs_of : ('msg, 'input, 'output) t -> int -> (int * 'output) list
(** [outputs_of t node]: all outputs of [node] as [(round, output)],
    in round order. *)

val deliveries_of : ('msg, 'input, 'output) t -> int -> (int * 'msg) list
(** All clean receptions of a node as [(round, message)]. *)

val transmission_count : ('msg, 'input, 'output) t -> int -> int
(** Number of rounds in which a node transmitted. *)
