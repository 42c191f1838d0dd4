(* Phase spans of an engine run, rebuilt from boundary stamps.

   The traced pass never edits the program: it wraps only the closures
   the benchmark hands to [Engine.run] and stamps the clock at a few
   boundaries of each round.  The engine calls them in a fixed order
   (inputs, decide, reception, absorb, then notify and the observer,
   each in ascending node order), so the stamps below partition every
   round into contiguous phases:

   - [Inputs]: entry of [env.inputs] for node 0 — the round starts;
   - [Decide_in] / [Decide_out]: entry of node 0's [decide], exit of
     node n-1's;
   - [Absorb_in] / [Absorb_out]: the same for [absorb];
   - [Observe_in] / [Observe_out]: around the benchmark's observer,
     which runs inside the round's tail;
   - [Run_start] / [Run_end]: around the [Engine.run] call itself. *)

type mark =
  | Run_start
  | Inputs
  | Decide_in
  | Decide_out
  | Absorb_in
  | Absorb_out
  | Observe_in
  | Observe_out
  | Run_end

type stamp = { mark : mark; at : int;  (** ns *) words : float  (** minor words *) }

type t = {
  name : string;
  parent : string;  (** [""] for a root span *)
  round : int;  (** [-1] for spans outside any round *)
  start : int;
  stop : int;
  words : float;
}

let duration s = s.stop - s.start

let span ~name ~parent ~round (a : stamp) (b : stamp) =
  { name; parent; round; start = a.at; stop = b.at; words = b.words -. a.words }

(* Stamps in call order -> spans: [prologue] (run entry to the first
   round), then per round a [round] span with children [inputs],
   [decide], [reception], [absorb] and [tail] (absorb exit to the next
   round, or to the end of the run), and [observe] under [tail].
   Raises [Invalid_argument] on a sequence the engine cannot produce. *)
let of_stamps (stamps : stamp array) =
  let out = ref [] in
  let emit s = out := s :: !out in
  let bad what = invalid_arg ("Span.of_stamps: " ^ what) in
  let last = Hashtbl.create 8 in
  let get m = match Hashtbl.find_opt last m with Some s -> s | None -> bad "missing boundary" in
  let round = ref (-1) in
  let close_round (now : stamp) =
    if !round >= 0 then begin
      let r = !round in
      emit (span ~name:"tail" ~parent:"round" ~round:r (get Absorb_out) now);
      emit (span ~name:"round" ~parent:"" ~round:r (get Inputs) now)
    end
    else emit (span ~name:"prologue" ~parent:"" ~round:(-1) (get Run_start) now)
  in
  Array.iter
    (fun (s : stamp) ->
      let child name m = emit (span ~name ~parent:"round" ~round:!round (get m) s) in
      (match s.mark with
      | Run_start -> if !round >= 0 || Hashtbl.mem last Run_start then bad "Run_start twice"
      | Inputs ->
          close_round s;
          Hashtbl.reset last;
          incr round
      | Decide_in -> child "inputs" Inputs
      | Decide_out -> child "decide" Decide_in
      | Absorb_in -> child "reception" Decide_out
      | Absorb_out -> child "absorb" Absorb_in
      | Observe_in -> ()
      | Observe_out ->
          emit (span ~name:"observe" ~parent:"tail" ~round:!round (get Observe_in) s)
      | Run_end -> close_round s);
      Hashtbl.replace last s.mark s)
    stamps;
  List.rev !out

(* Self time: a span's duration minus the durations of its direct
   children, never below zero.  Children are either nested inside the
   parent (disjoint, as above) or replays of the parent's kernels timed
   on fresh state; both are subtracted the same way. *)
let self_time parent children =
  max 0 (List.fold_left (fun acc c -> acc - duration c) (duration parent) children)
