type status =
  | Active
  | Leader of int
  | Inactive

type t = {
  params : Params.seed;
  id : int;
  rng : Prng.Rng.t;
  seed_rng : Prng.Rng.t;  (** [rng] as [create] found it: the seed's draws *)
  mutable seed : Prng.Bitstring.t option;  (** built on first use *)
  mutable status : status;
  mutable decision : Messages.seed_announcement option;
  mutable pending_event : Messages.seed_announcement option;
}

(* Most nodes adopt a neighbour's seed and never read their own, so the
   κ draws are skipped on [rng] now and replayed from a copy on first
   use. *)
let create params ~id ~rng =
  let seed_rng = Prng.Rng.copy rng in
  Prng.Rng.skip rng params.Params.kappa;
  {
    params;
    id;
    rng;
    seed_rng;
    seed = None;
    status = Active;
    decision = None;
    pending_event = None;
  }

let initial_seed t =
  match t.seed with
  | Some s -> s
  | None ->
      let s = Prng.Bitstring.random t.seed_rng t.params.Params.kappa in
      t.seed <- Some s;
      s

let status t = t.status
let duration t = Params.seed_duration t.params

let decide t announcement =
  (match t.decision with None -> () | Some _ -> assert false);
  t.decision <- Some announcement;
  t.pending_event <- Some announcement

let decide_action t ~local_round =
  let params = t.params in
  if local_round < 0 || local_round >= duration t then
    invalid_arg "Seed_core.decide_action: local round out of range";
  let phase_len = params.Params.phase_len in
  let q = local_round / phase_len in
  let h = q + 1 in
  let phase_start = local_round = q * phase_len in
  (* A leader's tenure ends with its phase. *)
  (match t.status with
  | Leader h' when phase_start && h > h' -> t.status <- Inactive
  | _ -> ());
  (match t.status with
  | Active when phase_start ->
      if Prng.Rng.bernoulli_pow2 t.rng (params.Params.phases - h + 1) then begin
        t.status <- Leader h;
        decide t { Messages.owner = t.id; seed = initial_seed t }
      end
  | Active | Leader _ | Inactive -> ());
  match t.status with
  | Leader _ when Prng.Rng.bernoulli t.rng params.Params.broadcast_prob ->
      Radiosim.Process.Transmit
        (Messages.Seed_msg { Messages.owner = t.id; seed = initial_seed t })
  | Leader _ | Active | Inactive -> Radiosim.Process.Listen

let absorb t ~local_round:_ received =
  match (t.status, received) with
  | Active, Some (Messages.Seed_msg announcement) ->
      t.status <- Inactive;
      decide t announcement
  | (Active | Leader _ | Inactive), _ -> ()

let take_event t =
  let event = t.pending_event in
  t.pending_event <- None;
  event

let finalize t =
  match t.status with
  | Active ->
      t.status <- Inactive;
      decide t { Messages.owner = t.id; seed = initial_seed t }
  | Leader _ | Inactive -> ()

let decision t = t.decision
