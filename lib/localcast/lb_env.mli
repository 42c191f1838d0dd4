(** The local broadcast environment (§4.1), the one behind every LBAlg
    run: the saturating and one-shot drivers below and the abstract MAC
    layer ({!Mac}).

    The problem constrains an environment to (1) never reuse a message
    and (2) wait for [ack(m)_u] before handing [u] another [bcast].  Per
    node this one keeps a request slot (the round from which the next
    bcast is handed over, and its tag), a uid counter and an outstanding
    flag: O(n) ints, whatever the run length.  A request is refused
    while the slot is full or an ack is owed (rule 2); the node's first
    poll at or after the slot's round hands the bcast over with the
    node's next uid (rule 1), so a node dead at that round gets it at
    its first live round.  [Ack] clears the flag, then [ack] and [recv]
    outputs go to the {!callbacks}; a request made there is handed over
    at the node's next poll, the next round.

    Which nodes are actively broadcasting is the spec monitor's to
    decide ({!Obs.Audit}, fed by {!Lb_spec}). *)

type callbacks = {
  on_recv : node:int -> round:int -> Messages.payload -> unit;
  on_ack : node:int -> round:int -> Messages.payload -> unit;
}

val no_callbacks : callbacks

type t

val create : name:string -> n:int -> callbacks -> t
(** An environment for [n] nodes with empty slots. *)

val env : t -> (Messages.lb_input, Messages.lb_output) Radiosim.Env.t

val request : t -> node:int -> round:int -> tag:int -> bool
(** [request t ~node ~round ~tag] fills [node]'s slot: a fresh message
    (the node's next uid, application tag [tag]) is handed over at its
    first poll at or after [round].  Returns [false], and does nothing,
    while {!busy}. *)

val busy : t -> node:int -> bool
(** [node]'s slot is full or its last bcast is not yet acknowledged. *)

val bcasts : t -> node:int -> int
(** The bcasts handed over to [node] so far. *)

val saturate : ?start:int -> n:int -> senders:int list -> unit -> t
(** Every node in [senders] receives a fresh [bcast] at round [start]
    (default 0) and again one round after each of its acks — so senders
    are actively broadcasting essentially forever.  This realizes the
    progress property's hypothesis (an always-active G-neighbor). *)

val one_shot : n:int -> bcasts:(int * int) list -> t
(** [one_shot ~n ~bcasts] requests one [bcast] for each [(node, round)]
    pair, at most one per node (a node's later pairs are refused).  Used
    for acknowledgement-latency and reliability experiments. *)
