(** Message, input and output vocabulary shared by SeedAlg and LBAlg.

    The paper gives every node [u] a private message set [M_u], pairwise
    disjoint across nodes; we realize a member of [M_u] as a {!payload}
    whose [src] is [u] and whose [uid] is unique at [u].  The optional
    [tag] carries application data (e.g. the interned message id in
    {!Macapps.Serve}) without breaking disjointness.

    On the wire both layers share one [msg] type, because LBAlg
    interleaves seed agreement preambles with data body rounds in the
    same execution. *)

type payload = { src : int; uid : int; tag : int }
(** One broadcastable message; [({src; uid; _}) ∈ M_src]. *)

val payload : ?tag:int -> src:int -> uid:int -> unit -> payload

val payload_equal : payload -> payload -> bool

val pp_payload : Format.formatter -> payload -> unit

type seed_announcement = { owner : int; seed : Prng.Bitstring.t }
(** A seed and the id of the node that generated it. *)

val pp_seed_announcement : Format.formatter -> seed_announcement -> unit

type msg =
  | Seed_msg of seed_announcement  (** SeedAlg traffic: the pair (i, s) *)
  | Data of payload  (** LBAlg body traffic *)

val pp_msg : Format.formatter -> msg -> unit

(** {1 Seed agreement interface (standalone runs)} *)

type seed_output = Decide of seed_announcement
    (** The spec's [decide(j, s)_u] output. *)

val pp_seed_output : Format.formatter -> seed_output -> unit

(** {1 Local broadcast interface} *)

type lb_input = Bcast of payload  (** The spec's [bcast(m)_u] input. *)

type lb_output =
  | Recv of payload  (** [recv(m')_u] *)
  | Ack of payload  (** [ack(m)_u] *)
  | Committed of seed_announcement
      (** Instrumentation only: the seed this node committed in the phase
          preamble that just ended.  Not part of the LB spec surface. *)

val pp_lb_input : Format.formatter -> lb_input -> unit

val pp_lb_output : Format.formatter -> lb_output -> unit
