type t =
  | Fixed of { p : float }
  | Decay of { levels : int }
  | Decay_restart of { levels : int }
  | Sawtooth of { levels : int }
  | Backoff of { max_exp : int }
  | Slotted of { slots : int }

(* Ladder depths are capped at 62, the widest exponent
   [Prng.Rng.bernoulli_pow2] takes.  [1 lsl 62] is min_int, so Backoff's
   window at exponent 62 wraps; that is harmless, because the exponent
   cannot rise further and the window then lasts about 2^62 rounds. *)
let max_levels = 62

let validate = function
  | Fixed { p } ->
      if Float.is_nan p || p < 0.0 || p > 1.0 then
        Error "fixed: p must be in [0, 1]"
      else Ok ()
  | Decay { levels } ->
      if levels < 1 || levels > max_levels then
        Error "decay: levels must be in [1, 62]"
      else Ok ()
  | Decay_restart { levels } ->
      if levels < 1 || levels > max_levels then
        Error "decay-restart: levels must be in [1, 62]"
      else Ok ()
  | Sawtooth { levels } ->
      if levels < 1 || levels > max_levels then
        Error "sawtooth: levels must be in [1, 62]"
      else Ok ()
  | Backoff { max_exp } ->
      if max_exp < 0 || max_exp > max_levels then
        Error "backoff: max_exp must be in [0, 62]"
      else Ok ()
  | Slotted { slots } ->
      if slots < 1 then Error "slotted: slots must be >= 1" else Ok ()

let float_to_string p =
  let s = Printf.sprintf "%g" p in
  if float_of_string s = p then s else Printf.sprintf "%.17g" p

let to_spec = function
  | Fixed { p } -> "fixed:" ^ float_to_string p
  | Decay { levels } -> "decay:" ^ string_of_int levels
  | Decay_restart { levels } -> "decay-restart:" ^ string_of_int levels
  | Sawtooth { levels } -> "sawtooth:" ^ string_of_int levels
  | Backoff { max_exp } -> "backoff:" ^ string_of_int max_exp
  | Slotted { slots } -> "slotted:" ^ string_of_int slots

let name = function
  | Fixed _ -> "fixed"
  | Decay _ -> "decay"
  | Decay_restart _ -> "decay-restart"
  | Sawtooth _ -> "sawtooth"
  | Backoff _ -> "backoff"
  | Slotted _ -> "slotted"

let pp ppf t = Format.pp_print_string ppf (to_spec t)

let parse spec =
  let fail () =
    Error
      (Printf.sprintf
         "bad strategy %S (expected fixed:P | decay:L | decay-restart:L | \
          sawtooth:L | backoff:K | slotted:N)"
         spec)
  in
  let checked t = match validate t with Ok () -> Ok t | Error e -> Error e in
  match String.split_on_char ':' (String.lowercase_ascii spec) with
  | [ "fixed"; arg ] -> (
      match float_of_string_opt arg with
      | Some p -> checked (Fixed { p })
      | None -> fail ())
  | [ family; arg ] -> (
      match (family, int_of_string_opt arg) with
      | "decay", Some levels -> checked (Decay { levels })
      | "decay-restart", Some levels -> checked (Decay_restart { levels })
      | "sawtooth", Some levels -> checked (Sawtooth { levels })
      | "backoff", Some max_exp -> checked (Backoff { max_exp })
      | "slotted", Some slots -> checked (Slotted { slots })
      | _ -> fail ())
  | _ -> fail ()

let levels_for ~delta' =
  let rec bits k = if 1 lsl k >= delta' then k else bits (k + 1) in
  max 1 (bits 0) + 1

let zoo ~delta' ~n =
  let levels = levels_for ~delta' in
  [
    Fixed { p = 1.0 /. float_of_int (max 2 delta') };
    Decay { levels };
    Decay_restart { levels };
    Sawtooth { levels };
    Backoff { max_exp = levels };
    Slotted { slots = n };
  ]

type state = {
  spec : t;
  rng : Prng.Rng.t;
  node : int;
  (* [level] is the Decay_restart ladder position or the Backoff window
     exponent; [window_left] counts the rounds remaining in the current
     Backoff window. *)
  mutable level : int;
  mutable window_left : int;
  mutable last_round : int;
}

let init spec ~rng ~node =
  (match validate spec with
  | Ok () -> ()
  | Error e -> invalid_arg ("Strategy.init: " ^ e));
  if node < 0 then invalid_arg "Strategy.init: node must be >= 0";
  { spec; rng; node; level = 0; window_left = 1; last_round = -1 }

let spec st = st.spec

let decide st ~round =
  if round < 0 then invalid_arg "Strategy.decide: round must be >= 0";
  if round <= st.last_round then
    invalid_arg "Strategy.decide: rounds must be strictly increasing";
  st.last_round <- round;
  match st.spec with
  | Fixed { p } -> Prng.Rng.bernoulli st.rng p
  | Decay { levels } -> Prng.Rng.bernoulli_pow2 st.rng ((round mod levels) + 1)
  | Decay_restart { levels } ->
      let r = Prng.Rng.bernoulli_pow2 st.rng (st.level + 1) in
      st.level <- min (st.level + 1) (levels - 1);
      r
  | Sawtooth { levels } ->
      Prng.Rng.bernoulli_pow2 st.rng (levels - (round mod levels))
  | Backoff { max_exp } ->
      let r = Prng.Rng.bernoulli_pow2 st.rng st.level in
      st.window_left <- st.window_left - 1;
      if st.window_left <= 0 then begin
        st.level <- min (st.level + 1) max_exp;
        st.window_left <- 1 lsl st.level
      end;
      r
  | Slotted { slots } -> round mod slots = st.node mod slots

let feedback st ~round:_ ~heard =
  if heard then
    match st.spec with
    | Decay_restart _ -> st.level <- 0
    | Backoff _ ->
        st.level <- 0;
        st.window_left <- 1
    | Fixed _ | Decay _ | Sawtooth _ | Slotted _ -> ()

let node_rng ?(round = 0) ~seed ~node () = Prng.Rng.node_stream ~seed ~node ~round

let heard = function Some _ -> true | None -> false

let sender spec ~message ~rng ~node =
  let st = ref (init spec ~rng ~node) in
  let decide ~round _inputs =
    (* A round going backwards means the node object was reused for a
       fresh engine run (the micro-benches drive M1/M5/M6 this way):
       restart the schedule but keep drawing from the same stream,
       exactly the pre-refactor baselines' behavior. *)
    if round <= !st.last_round then st := init spec ~rng ~node;
    if decide !st ~round then
      Radiosim.Process.Transmit (Localcast.Messages.Data message)
    else Radiosim.Process.Listen
  in
  let absorb ~round received =
    feedback !st ~round ~heard:(heard received);
    []
  in
  { Radiosim.Process.decide; absorb }

let relay spec ?initial ?budget ?window ~rng ~node () =
  (match budget with
  | Some b when b < 0 -> invalid_arg "Strategy.relay: budget must be >= 0"
  | _ -> ());
  (match window with
  | Some w when w < 1 -> invalid_arg "Strategy.relay: window must be >= 1"
  | _ -> ());
  let st = init spec ~rng ~node in
  let holding = ref initial in
  (* Engine round of the relay's local round 0: an initial holder starts
     at 0; an acquirer's schedule starts the round after first
     reception. *)
  let base = ref 0 in
  (* The budget is the broadcast's global active window in engine
     rounds, not a per-relay allowance: every relay falls silent from
     round [budget] on, exactly like experiment E20's budgeted sender. *)
  let active round =
    let local = round - !base in
    local >= 0
    && (match window with None -> true | Some w -> local < w)
    && match budget with None -> true | Some b -> round < b
  in
  let decide ~round _inputs =
    match !holding with
    | Some payload when active round && decide st ~round:(round - !base) ->
        Radiosim.Process.Transmit (Localcast.Messages.Data payload)
    | Some _ | None -> Radiosim.Process.Listen
  in
  let absorb ~round received =
    (match !holding with
    | Some _ ->
        if active round then
          feedback st ~round:(round - !base) ~heard:(heard received)
    | None -> (
        match received with
        | Some (Localcast.Messages.Data payload) ->
            holding := Some payload;
            base := round + 1
        | Some (Localcast.Messages.Seed_msg _) | None -> ()));
    []
  in
  { Radiosim.Process.decide; absorb }
