(** The one grammar of every spec string: the reception model
    ([Radiosim.Reception.of_spec]), the fault plan
    ([Faults.Plan.of_spec]), the Serve workload and policy
    ([Macapps.Workload.parse], [Macapps.Serve.parse_policy]) and the
    back-off strategies ([Baseline.Strategy.parse]).  Each of those
    states its own productions; the rules they share are stated here:

    - whitespace around every field (tag, argument, key, value, list
      item) is ignored;
    - tags and keys are case-insensitive (ASCII);
    - an integer is an OCaml integer literal ([-3], [0x1f], [0b101],
      [1_000]) and a number an OCaml float literal ([0.5], [1e-3],
      [0x1p-4]) that is finite: [nan] and [inf] are rejected;
    - a list keeps every item: in [a,,b] the empty middle item reaches
      the item's reader, which rejects it;
    - an error reads [GRAMMAR spec "SPEC": REASON], naming the grammar
      and the whole spec; the reason names the offending field.

    Range checks stay with each module, applied to the values read
    here.  No reader raises. *)

type 'a reader = string -> ('a, string) result
(** Reads one field; an [Error] carries the bare reason. *)

val parse : string -> 'a reader -> 'a reader
(** [parse grammar r spec] is [r spec] with the error format above. *)

val int : int reader
val float : float reader

val pair : char -> 'a reader -> 'b reader -> ('a * 'b) reader
(** [pair sep a b] reads [A sep B], split at the first [sep]. *)

val list : ?sep:char -> 'a reader -> 'a list reader
(** Items separated by [sep] (default [',']). *)

val settings : (string * ('a -> 'a reader)) list -> 'a -> 'a reader
(** [settings keys init] reads [KEY=VALUE] items separated by [','],
    folding each value into the accumulator (from [init]) with its key's
    function.  Only the last value of a repeated key is read. *)

type 'a args = string option -> ('a, string) result
(** A tag's reader of the ARGS after its [':'], [None] for a bare tag. *)

val tags : (string * 'a args) list -> 'a reader
(** [TAG[:ARGS]], ARGS being everything after the first [':']. *)

val bare : 'a -> 'a args
(** A tag without ARGS. *)

val args : 'a reader -> 'a args
(** A tag with ARGS. *)

val float_to_string : float -> string
(** The shortest exact text: [%g] when that reads back as the same
    float, else [%.17g]; {!float} reads every finite result back. *)
