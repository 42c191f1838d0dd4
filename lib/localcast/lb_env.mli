(** Deterministic environments for the local broadcast problem (§4.1).

    The problem constrains environments to (1) never reuse a message and
    (2) wait for [ack(m)_u] before handing [u] another [bcast].  The
    environments here obey both and keep a {!log} of every bcast/ack pair
    and its receptions.  Which nodes are actively broadcasting is the
    spec monitor's to decide ({!Obs.Audit}, fed by {!Lb_spec}). *)

type entry = {
  node : int;
  payload : Messages.payload;
  bcast_round : int;
  mutable ack_round : int option;
  mutable recv_rounds : (int * int) list;
      (** [(receiver, round)] of every [Recv] of this payload *)
}

type t

val env : t -> (Messages.lb_input, Messages.lb_output) Radiosim.Env.t

val log : t -> entry list
(** All entries, in bcast order. *)

val saturate : ?start:int -> n:int -> senders:int list -> unit -> t
(** Every node in [senders] receives a fresh [bcast] at round [start]
    (default 0) and again one round after each of its acks — so senders
    are actively broadcasting essentially forever.  This realizes the
    progress property's hypothesis (an always-active G-neighbor). *)

val one_shot : n:int -> bcasts:(int * int) list -> t
(** [one_shot ~n ~bcasts] issues a single [bcast] to each [(node, round)]
    pair.  Used for acknowledgement-latency and reliability experiments. *)
