module P = Radiosim.Process

type seed_source =
  | Agreement
  | Oracle of Prng.Rng.t

(* Internal form: the oracle collapses to a shared 64-bit base from which
   every node derives the same per-phase seed without further
   synchronization. *)
type source =
  | Src_agreement
  | Src_oracle of int64

type mode =
  | Receiving
  | Sending of { message : Messages.payload; mutable phases_left : int }

(* Where the node's shared bits come from in the current phase: a
   SeedAlg run during a preamble, then a cursor on the committed seed
   for body rounds.  [skipped] counts the body rounds listened through
   since the cursor last moved (see [body_action]). *)
type seed =
  | Unseeded
  | Agreeing of Seed_core.t
  | Seeded of { cursor : Prng.Bitstring.cursor; mutable skipped : int }

type state = {
  params : Params.t;
  id : int;
  rng : Prng.Rng.t;
  source : source;
  last : (int, Messages.payload) Hashtbl.t;
      (** per source heard, its last message: O(|N_G'(u)|) entries *)
  mutable mode : mode;
  mutable pending : Messages.payload option;
  mutable seed : seed;
  mutable pending_outputs : Messages.lb_output list;
}

let phase_of_round params round = round / params.Params.phase_len

let position_in_phase params round = round mod params.Params.phase_len

(* The default [seed_refresh = 1] needs no division. *)
let has_preamble params phase =
  params.Params.seed_refresh = 1 || phase mod params.Params.seed_refresh = 0

let is_preamble_round params round =
  has_preamble params (phase_of_round params round)
  && position_in_phase params round < params.Params.ts

let resolve_source = function
  | Agreement -> Src_agreement
  | Oracle shared ->
      (* Copy so that deriving the base never advances the shared
         generator: every node resolves to the same base. *)
      Src_oracle (Prng.Rng.bits64 (Prng.Rng.copy shared))

let oracle_seed state ~phase =
  match state.source with
  | Src_agreement -> assert false
  | Src_oracle base ->
      let derived =
        Prng.Rng.create (Prng.Rng.mix (Int64.add base (Int64.of_int phase)))
      in
      Prng.Bitstring.random derived state.params.Params.seed.Params.kappa

let create params ~source ~id ~rng =
  {
    params;
    id;
    rng;
    source;
    last = Hashtbl.create 16;
    mode = Receiving;
    pending = None;
    seed = Unseeded;
    pending_outputs = [];
  }

let queue_output state out = state.pending_outputs <- out :: state.pending_outputs

let open_cursor state ~skipped seed =
  state.seed <- Seeded { cursor = Prng.Bitstring.cursor seed; skipped }

(* Commit the preamble's seed and open a cursor on it for body rounds. *)
let commit_seed state core =
  Seed_core.finalize core;
  match Seed_core.decision core with
  | Some announcement ->
      open_cursor state ~skipped:0 announcement.Messages.seed;
      queue_output state (Messages.Committed announcement)
  | None -> assert false

(* One body round's shared bits (§4.2): [0] for a non-participant, else
   the probability level b in [1, log Δ]. *)
let shared_level params cursor =
  (* Step 1: shared participant decision (probability 2^-d). *)
  if not (Prng.Bitstring.take_all_zero cursor params.Params.participant_bits)
  then 0
  else if params.Params.level_bits = 0 then 1
  else begin
    (* Step 3: shared probability level.  The level must be uniform in
       [1, log Δ]; reducing one draw mod log Δ would skew toward small
       levels whenever 2^level_bits is not a multiple of log Δ, so we
       rejection-sample: accept the first draw below the largest
       multiple of log Δ (uniform after reduction), over a fixed budget
       of level_draws draws so every group member consumes the same
       shared bits.  If all draws land in the short biased tail
       (probability < 2^-level_draws), fall back to the last draw
       reduced mod log Δ. *)
    let m = params.Params.log_delta in
    let limit = (1 lsl params.Params.level_bits) / m * m in
    let chosen = ref (-1) in
    let last = ref 0 in
    for _ = 1 to params.Params.level_draws do
      let v = Prng.Bitstring.take_int cursor params.Params.level_bits in
      last := v;
      if !chosen < 0 && v < limit then chosen := v
    done;
    (if !chosen >= 0 then !chosen mod m else !last mod m) + 1
  end

(* Members of one seed group must read the same bits in the same round,
   but only a sender acts on them: a receiving node listens and draws
   nothing, so it leaves its cursor where it is and counts the body
   rounds it skipped.  Before its first step as a sender — mid-cycle
   only when seed_refresh > 1, since a preamble opens a fresh cursor —
   it replays exactly those takes, so from then on it reads the same
   bits in the same round as every sender of its group. *)
let body_action state =
  match state.seed with
  | Unseeded | Agreeing _ -> P.Listen
  | Seeded s -> (
      match state.mode with
      | Receiving ->
          s.skipped <- s.skipped + 1;
          P.Listen
      | Sending { message; _ } ->
          let params = state.params and cursor = s.cursor in
          for _ = 1 to s.skipped do
            ignore (shared_level params cursor : int)
          done;
          s.skipped <- 0;
          (* Then the local coins: transmit with probability 2^-b. *)
          let b = shared_level params cursor in
          if b > 0 && Prng.Rng.geometric_trial state.rng b then
            P.Transmit (Messages.Data message)
          else P.Listen)

(* A top-level walk rather than [List.iter] over a closure capturing
   [state]: the common empty round then allocates nothing. *)
let rec take_inputs state = function
  | [] -> ()
  | Messages.Bcast m :: rest ->
      (* The LB environment contract: one outstanding bcast per node. *)
      (match state.pending with None -> () | Some _ -> assert false);
      (match state.mode with Receiving -> () | Sending _ -> assert false);
      state.pending <- Some m;
      take_inputs state rest

let decide state ~round inputs =
  let params = state.params in
  take_inputs state inputs;
  let phase_len = params.Params.phase_len in
  let phase = round / phase_len in
  let pos = round - (phase * phase_len) in
  let preamble = has_preamble params phase in
  if pos = 0 then begin
    (* Phase boundary: promote a pending bcast to sending state... *)
    (match (state.mode, state.pending) with
    | Receiving, Some m ->
        state.mode <- Sending { message = m; phases_left = params.Params.tack_phases };
        state.pending <- None
    | _ -> ());
    (* ...and open a fresh seed source when this phase carries one. *)
    if preamble then
      state.seed <-
        (match state.source with
        | Src_agreement ->
            Agreeing (Seed_core.create params.Params.seed ~id:state.id ~rng:state.rng)
        | Src_oracle _ -> Unseeded)
  end;
  if preamble && pos < params.Params.ts then
    match state.seed with
    | Agreeing core -> Seed_core.decide_action core ~local_round:pos
    | Unseeded | Seeded _ -> P.Listen (* oracle mode idles through the preamble *)
  else begin
    (* First body round after a preamble, or after a fresh-state
       revival under the oracle: commit the cycle's seed. *)
    (match (state.source, state.seed) with
    | Src_agreement, Agreeing core -> commit_seed state core
    | Src_oracle _, Unseeded ->
        (* The cycle's seed, and the body rounds its senders have read
           so far: a node revived mid-cycle joins its group where the
           group's cursors stand. *)
        let first = phase - (phase mod params.Params.seed_refresh) in
        let seed = oracle_seed state ~phase:first in
        open_cursor state seed
          ~skipped:(round - (first * phase_len) - params.Params.ts);
        (* Owner -1 marks the magical global owner. *)
        queue_output state (Messages.Committed { Messages.owner = -1; seed })
    | (Src_agreement | Src_oracle _), _ -> ());
    body_action state
  end

let absorb state ~round received =
  let params = state.params in
  let phase_len = params.Params.phase_len in
  let phase = round / phase_len in
  let pos = round - (phase * phase_len) in
  let in_preamble = has_preamble params phase && pos < params.Params.ts in
  (match received with
  | Some (Messages.Seed_msg _ as msg) ->
      if in_preamble then
        (match state.seed with
        | Agreeing core -> Seed_core.absorb core ~local_round:pos (Some msg)
        | Unseeded | Seeded _ -> ())
  | Some (Messages.Data m) ->
      (* A source's messages arrive in bcast order, each only in its own
         sending phases, so a repeat equals the source's last message.
         [replace] on a known source allocates nothing. *)
      let src = m.Messages.src in
      let repeat =
        match Hashtbl.find state.last src with
        | last -> Messages.payload_equal last m
        | exception Not_found -> false
      in
      Hashtbl.replace state.last src m;
      if not repeat then queue_output state (Messages.Recv m)
  | None ->
      if in_preamble then (
        match state.seed with
        | Agreeing core -> Seed_core.absorb core ~local_round:pos None
        | Unseeded | Seeded _ -> ()));
  (* Phase end: retire finished senders. *)
  if pos = phase_len - 1 then begin
    match state.mode with
    | Sending s ->
        s.phases_left <- s.phases_left - 1;
        if s.phases_left = 0 then begin
          queue_output state (Messages.Ack s.message);
          state.mode <- Receiving
        end
    | Receiving -> ()
  end;
  match state.pending_outputs with
  | [] -> []
  | outs ->
      state.pending_outputs <- [];
      List.rev outs

let node ?(seed_source = Agreement) params ~id ~rng =
  let state = create params ~source:(resolve_source seed_source) ~id ~rng in
  {
    P.decide = (fun ~round inputs -> decide state ~round inputs);
    absorb = (fun ~round received -> absorb state ~round received);
  }

let network ?seed_source params ~rng ~n =
  Array.init n (fun id -> node ?seed_source params ~id ~rng:(Prng.Rng.split rng))

let phase_of_round params round = phase_of_round params round

let is_preamble_round params round = is_preamble_round params round
