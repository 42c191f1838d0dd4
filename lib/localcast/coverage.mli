(** One broadcast's first receptions: per node, the round at which it
    first cleanly received data from a source.

    The tally reads the engine's round records, so it serves any relay
    (LBAlg, a [Baseline.Strategy] relay) alike.  Under LBAlg it equals each
    node's first [Recv] of the source's message whenever the source
    holds a single message, as in a one-shot run: LBAlg emits [Recv m]
    in the round of the first clean [Data m] delivery to a live node. *)

type t = {
  source : int;
  first : int array;
      (** per node, the round of its first clean reception of [source]'s
          data: [max_int] while it has none, [0] at the source *)
  mutable covered : int;  (** nodes with a first reception, source included *)
}

val create : n:int -> source:int -> t
(** Fresh tallies: only the source is covered.  Raises
    [Invalid_argument] unless [0 <= source < n]. *)

val observe : t -> (Messages.msg, 'i, 'o) Radiosim.Trace.round_record -> unit
(** The engine observer that keeps the tallies.  The engine calls [stop]
    after the observer, so [stop] may read [covered]. *)

val first_data :
  receiver:int ->
  (stop:((Messages.msg, 'i, 'o) Radiosim.Trace.round_record -> bool) -> int) ->
  int option
(** [first_data ~receiver run] calls [run ~stop] with the engine [stop]
    predicate of a first-reception run: it ends the run in the round of
    [receiver]'s first clean [Data] delivery.  Returns that round
    (0-based), or [None] if [run] returns without one. *)
