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

type state = {
  params : Params.t;
  id : int;
  rng : Prng.Rng.t;
  source : source;
  seen : (Messages.payload, unit) Hashtbl.t;
  mutable mode : mode;
  mutable pending : Messages.payload option;
  mutable core : Seed_core.t option;  (** live during a preamble *)
  mutable cursor : Prng.Bitstring.cursor option;  (** live during body rounds *)
  mutable pending_outputs : Messages.lb_output list;
}

let phase_of_round params round = round / params.Params.phase_len

let position_in_phase params round = round mod params.Params.phase_len

let has_preamble params phase = phase mod params.Params.seed_refresh = 0

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
    seen = Hashtbl.create 32;
    mode = Receiving;
    pending = None;
    core = None;
    cursor = None;
    pending_outputs = [];
  }

let queue_output state out = state.pending_outputs <- out :: state.pending_outputs

(* Commit the preamble's seed and open a cursor on it for body rounds. *)
let commit_seed state =
  match state.core with
  | None -> ()
  | Some core ->
      Seed_core.finalize core;
      (match Seed_core.decision core with
      | Some announcement ->
          state.cursor <- Some (Prng.Bitstring.cursor announcement.Messages.seed);
          queue_output state (Messages.Committed announcement)
      | None -> assert false);
      state.core <- None

(* Every node holding a committed seed advances its cursor identically,
   whether sending or receiving: this keeps all members of one seed group
   at the same bit position even when a node enters the sending state
   partway through a multi-phase seed cycle (seed_refresh > 1). *)
let body_action state =
  match state.cursor with
  | None -> P.Listen
  | Some cursor ->
      let params = state.params in
      (* Step 1: shared participant decision (probability 2^-d). *)
      let participant =
        Prng.Bitstring.take_all_zero cursor params.Params.participant_bits
      in
      if not participant then P.Listen
      else begin
        (* Step 3: shared probability level, then local coins.  The
           level must be uniform in [1, log Δ]; reducing one draw mod
           log Δ would skew toward small levels whenever 2^level_bits is
           not a multiple of log Δ, so we rejection-sample: accept the
           first draw below the largest multiple of log Δ (uniform after
           reduction), over a fixed budget of level_draws draws so every
           group member consumes the same shared bits.  If all draws
           land in the short biased tail (probability < 2^-level_draws),
           fall back to the last draw reduced mod log Δ. *)
        let b =
          if params.Params.level_bits = 0 then 1
          else begin
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
        in
        match state.mode with
        | Sending { message; _ } when Prng.Rng.geometric_trial state.rng b ->
            P.Transmit (Messages.Data message)
        | Sending _ | Receiving -> P.Listen
      end

(* A top-level walk rather than [List.iter] over a closure capturing
   [state]: the common empty round then allocates nothing. *)
let rec take_inputs state = function
  | [] -> ()
  | Messages.Bcast m :: rest ->
      (* The LB environment contract: one outstanding bcast per node. *)
      assert (state.pending = None);
      (match state.mode with Receiving -> () | Sending _ -> assert false);
      state.pending <- Some m;
      take_inputs state rest

let decide state ~round inputs =
  let params = state.params in
  take_inputs state inputs;
  let phase = phase_of_round params round in
  let pos = position_in_phase params round in
  if pos = 0 then begin
    (* Phase boundary: promote a pending bcast to sending state... *)
    (match (state.mode, state.pending) with
    | Receiving, Some m ->
        state.mode <- Sending { message = m; phases_left = params.Params.tack_phases };
        state.pending <- None
    | _ -> ());
    (* ...and open a fresh seed source when this phase carries one. *)
    if has_preamble params phase then begin
      state.cursor <- None;
      match state.source with
      | Src_agreement ->
          state.core <-
            Some (Seed_core.create params.Params.seed ~id:state.id ~rng:state.rng)
      | Src_oracle _ -> state.core <- None
    end
  end;
  if has_preamble params phase && pos < params.Params.ts then
    match state.core with
    | Some core -> Seed_core.decide_action core ~local_round:pos
    | None -> P.Listen (* oracle mode idles through the preamble *)
  else begin
    (* First body round after a preamble: commit the phase's seed. *)
    (match state.source with
    | Src_agreement -> if state.core <> None then commit_seed state
    | Src_oracle _ ->
        if state.cursor = None then begin
          let seed = oracle_seed state ~phase in
          state.cursor <- Some (Prng.Bitstring.cursor seed);
          (* Owner -1 marks the magical global owner. *)
          queue_output state (Messages.Committed { Messages.owner = -1; seed })
        end);
    body_action state
  end

let absorb state ~round received =
  let params = state.params in
  let pos = position_in_phase params round in
  let in_preamble = is_preamble_round params round in
  (match received with
  | Some (Messages.Seed_msg _ as msg) ->
      if in_preamble then
        (match state.core with
        | Some core -> Seed_core.absorb core ~local_round:pos (Some msg)
        | None -> ())
  | Some (Messages.Data m) ->
      if not (Hashtbl.mem state.seen m) then begin
        Hashtbl.add state.seen m ();
        queue_output state (Messages.Recv m)
      end
  | None ->
      if in_preamble then (
        match state.core with
        | Some core -> Seed_core.absorb core ~local_round:pos None
        | None -> ()));
  (* Phase end: retire finished senders. *)
  if pos = params.Params.phase_len - 1 then begin
    match state.mode with
    | Sending s ->
        s.phases_left <- s.phases_left - 1;
        if s.phases_left = 0 then begin
          queue_output state (Messages.Ack s.message);
          state.mode <- Receiving
        end
    | Receiving -> ()
  end;
  let outs = List.rev state.pending_outputs in
  state.pending_outputs <- [];
  outs

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
