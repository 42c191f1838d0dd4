(** Immutable bit strings with sequential consumption.

    SeedAlg draws its seeds from the domain [S_kappa = {0,1}^kappa]
    (paper §4.2), and LBAlg then consumes bits from the committed seed in
    order: first [d] bits per body round for the participant decision, then
    [log log Delta] bits for the probability-level choice.  A [Bitstring.t]
    is the seed value; a {!cursor} tracks a node's position in it.

    Crucially, two nodes that committed to the same seed and are at the
    same round consume the same bits and therefore make identical shared
    choices — the property Lemma C.1's analysis relies on. *)

type t
(** An immutable sequence of bits. *)

val length : t -> int

val get : t -> int -> bool
(** [get s i] is bit [i] (0-indexed).  Raises [Invalid_argument] if out of
    range. *)

val random : Rng.t -> int -> t
(** [random rng k] draws a uniform element of [{0,1}^k]: bit [i] is the
    [i]-th of [k] {!Rng.bool} draws, filled in one {!Rng.fill_bools}
    loop, and [rng] ends [k] draws further on. *)

val of_bools : bool list -> t

val to_bools : t -> bool list

val equal : t -> t -> bool

val compare : t -> t -> int

val ones : t -> int
(** Number of set bits. *)

val pp : Format.formatter -> t -> unit
(** Prints as e.g. [0110...] (truncated for long strings). *)

val to_string : t -> string
(** Full "0"/"1" rendering. *)

val of_string : string -> t
(** Parse a "0"/"1" string.  Raises [Invalid_argument] on other chars. *)

(** {1 Cursors}

    {!take_int} and {!take_all_zero} read their bits as one window (an
    8-byte load, shifted and masked) after a single range check, not bit
    by bit.  What they return and where they leave the cursor is what
    [k] calls to {!take_bit} would give, exhaustion included: a take
    running past the end consumes every remaining bit and then raises
    [Invalid_argument "Bitstring.take_bit: exhausted"]. *)

type cursor
(** A mutable read position into a bitstring. *)

val cursor : t -> cursor
(** Fresh cursor at position 0. *)

val remaining : cursor -> int
(** Bits left before exhaustion. *)

val position : cursor -> int

val take_bit : cursor -> bool
(** Consume one bit.  Raises [Invalid_argument] if exhausted. *)

val take_int : cursor -> int -> int
(** [take_int c k] consumes [k] bits (most significant first) and returns
    the value in [\[0, 2^k)].  Requires [0 <= k <= 30]. *)

val take_all_zero : cursor -> int -> bool
(** [take_all_zero c k] consumes [k] bits and reports whether all were 0 —
    the "participant" test of LBAlg's body round (probability [2^-k]).
    It consumes all [k] even after a 1; [k <= 0] consumes nothing and
    returns [true]. *)
