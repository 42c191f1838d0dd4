(** Pluggable reception models: which physics decides who hears whom.

    The engine separates {e scheduling} (who transmits this round) from
    {e reception} (which listeners decode which transmission).  A
    reception model is the second half: a rule mapping the round's
    transmitter set to a per-listener outcome.  Two models ship:

    - {b Dual-graph} (the paper's model, the default): listener [u]
      receives from [v] iff [v] is the {e only} transmitter among [u]'s
      neighbors in the round's topology — all of [G] plus the unreliable
      edges the link scheduler activates.  Collision resolution is
      binary and graph-local; unreliability is adversarial, injected by
      the scheduler.

    - {b SINR} (physical interference, after Halldórsson & Mitra's
      analysis of local broadcasting in the SINR model): every
      transmitter radiates power [power]; listener [u] receives
      [power / d(u,v)^alpha] from a transmitter at distance [d(u,v)],
      and decodes the {e strongest} one iff its signal is at least
      [beta] times the sum of all other received power plus the ambient
      [noise] floor.  Unreliability is emergent — interference — so the
      link scheduler is {e not consulted} and [G' \ G] plays no role;
      the model reads only the dual graph's Euclidean embedding.

    Same algorithms, same specs, same observability rail run unchanged
    over either physics; only the air differs.  See [docs/RECEPTION.md]
    for the interface contract, the parameter guide and the power-sum
    aggregation scheme, and DESIGN.md §11 for where the model plugs into
    the engines. *)

type sinr = private {
  alpha : float;  (** path-loss exponent, [> 0] (free space 2, urban 3–5) *)
  beta : float;  (** decoding threshold, [> 0]: signal ≥ beta · interference *)
  noise : float;  (** ambient noise floor, [>= 0] *)
  power : float;  (** uniform transmit power, [> 0] *)
  jam : float;
      (** extra noise a jam window injects into the jammed node's
          receiver, [>= 0] (see {!sinr} for the default) *)
  near : int;
      (** near-field radius in grid columns, [>= 1]: transmitters within
          [near] columns are summed exactly, farther ones through the
          per-column far-field aggregate (see [docs/RECEPTION.md]) *)
}
(** SINR parameters.  [private]: obtain values via {!sinr} or
    {!of_spec}, which validate; the fields are free to read. *)

type t =
  | Dual_graph
      (** The paper's dual-graph collision rule — bit-identical to the
          engine as it existed before reception models were pluggable. *)
  | Sinr of sinr
      (** Physical interference over the topology's embedding. *)

val dual_graph : t
(** [Dual_graph] — the default of every engine entry point. *)

val sinr :
  ?alpha:float ->
  ?beta:float ->
  ?noise:float ->
  ?power:float ->
  ?jam:float ->
  ?near:int ->
  unit ->
  t
(** An SINR model.  Defaults: [alpha = 3.0], [beta = 1.5],
    [noise = 0.01], [power = 1.0], [jam = 1000 · power] (a jammer parked
    next to the radio — strong enough to deafen it against any
    neighbor), [near = 2].  With the defaults a {e lone} transmitter is
    decodable out to [d* = (power / (beta · noise))^(1/alpha) ≈ 4.05] —
    comfortably past the geographic parameter [r] of the bundled
    topologies, so sparse rounds behave like the dual-graph model and
    dense rounds expose the interference physics.

    @raise Invalid_argument unless [alpha > 0], [beta > 0],
    [noise >= 0], [power > 0], [jam >= 0] and [near >= 1]. *)

val of_spec : string -> (t, string) result
(** Parses the CLI grammar, under the shared rules of {!Grammar}:

    {v
    SPEC   := 'dual' | 'dual-graph'
            | 'sinr' [':' kv (',' kv)*]
    kv     := ('alpha' | 'beta' | 'noise' | 'power' | 'jam') '=' NUM
            | 'near' '=' INT
    v}

    e.g. ["dual"], ["sinr"], or ["sinr:alpha=4,beta=2,noise=1e-3"].
    Unmentioned keys take the {!sinr} defaults; values are validated
    with the same rules. *)

val to_spec : t -> string
(** The canonical spec string: [of_spec (to_spec m) = Ok m] for every
    [m], with every SINR key spelled out. *)

val name : t -> string
(** ["dual-graph"] or ["sinr"] — the label observability consumers and
    experiment tables use. *)

val requires_embedding : t -> bool
(** Whether the model reads the dual graph's Euclidean embedding
    ([true] exactly for {!Sinr}).  Engines raise [Invalid_argument]
    when given such a model and a topology without one. *)

val pp : Format.formatter -> t -> unit
