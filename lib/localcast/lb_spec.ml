module Dual = Dualgraph.Dual
module Audit = Obs.Audit
module E = Obs.Event

type report = Audit.report = {
  rounds_observed : int;
  validity_violations : int;
  ack_count : int;
  late_ack_count : int;
  missing_ack_count : int;
  max_ack_latency : int;
  reliability_attempts : int;
  reliability_failures : int;
  progress_opportunities : int;
  progress_failures : int;
  progress_latencies : int list;
}

let reliability_rate r =
  if r.reliability_attempts = 0 then 1.0
  else
    float_of_int (r.reliability_attempts - r.reliability_failures)
    /. float_of_int r.reliability_attempts

let progress_rate r =
  if r.progress_opportunities = 0 then 1.0
  else
    float_of_int (r.progress_opportunities - r.progress_failures)
    /. float_of_int r.progress_opportunities

type record =
  (Messages.msg, Messages.lb_input, Messages.lb_output) Radiosim.Trace.round_record

type monitor = {
  core : Audit.t;
  params : Params.t;
  faults : Faults.Plan.cursor option;
  mutable sink : Obs.Sink.t option;
  mutable after : record -> unit;
  mutable finished : bool;
}

let auditor ?window ~dual ~params () =
  Audit.create ?window
    ~t_prog:(Params.t_prog_rounds params)
    ~delta_bound:params.Params.delta_bound ~g:(Dual.g dual) ~g':(Dual.g' dual)
    ~t_ack:(Params.t_ack_rounds params) ()

let monitor ?faults ~dual ~params ?env:_ () =
  {
    core = auditor ~dual ~params ();
    params;
    faults = Option.map Faults.Plan.cursor faults;
    sink = None;
    after = ignore;
    finished = false;
  }

let audit m = m.core
let params m = m.params

let tap m sink after =
  m.sink <- Some sink;
  m.after <- after

(* The walk: one top-level function per record section, and an event
   built only when a sink is attached, so a quiet round allocates
   nothing. *)

let rec bcasts m ~round u = function
  | [] -> ()
  | Messages.Bcast { Messages.uid; _ } :: rest ->
      Audit.bcast m.core ~round ~node:u ~uid;
      (match m.sink with
      | Some s -> Obs.Sink.emit s (E.Bcast { round; node = u; uid })
      | None -> ());
      bcasts m ~round u rest

let rec outputs m ~round u = function
  | [] -> ()
  | Messages.Recv { Messages.src; uid; _ } :: rest ->
      Audit.recv m.core ~round ~node:u ~src ~uid;
      (match m.sink with
      | Some s -> Obs.Sink.emit s (E.Recv { round; node = u; src; uid })
      | None -> ());
      outputs m ~round u rest
  | Messages.Ack { Messages.uid; _ } :: rest ->
      let latency = Audit.ack m.core ~round ~node:u ~uid in
      (match m.sink with
      | Some s -> Obs.Sink.emit s (E.Ack { round; node = u; uid; latency })
      | None -> ());
      outputs m ~round u rest
  | Messages.Committed { Messages.owner; _ } :: rest ->
      Audit.seed_commit m.core ~node:u ~owner;
      (match m.sink with
      | Some s -> Obs.Sink.emit s (E.Seed_commit { round; node = u; owner })
      | None -> ());
      outputs m ~round u rest

let observe m (record : record) =
  if m.finished then invalid_arg "Lb_spec.observe: monitor already finished";
  let round = record.Radiosim.Trace.round and core = m.core in
  (match m.faults with
  | None -> ()
  | Some cursor ->
      Faults.Plan.apply cursor ~round (fun node -> function
        | Faults.Plan.Crash -> Audit.crash core ~round ~node
        | Faults.Plan.Restart -> Audit.restart core ~round ~node));
  let phase_len = m.params.Params.phase_len in
  let pos = round mod phase_len in
  if pos = 0 then begin
    let phase = round / phase_len in
    Audit.phase_start core ~round ~phase;
    let preamble = phase mod m.params.Params.seed_refresh = 0 in
    match m.sink with
    | Some s -> Obs.Sink.emit s (E.Phase_start { round; phase; preamble })
    | None -> ()
  end;
  let inputs = record.Radiosim.Trace.inputs in
  for u = 0 to Array.length inputs - 1 do
    bcasts m ~round u inputs.(u)
  done;
  let delivered = record.Radiosim.Trace.delivered in
  for u = 0 to Array.length delivered - 1 do
    match delivered.(u) with
    | Some (Messages.Data { Messages.src; uid; _ })
      when Audit.qualifying core ~src ~uid && Audit.progress core ~round ~node:u -> (
        match m.sink with
        | Some s -> Obs.Sink.emit s (E.Progress { round; node = u; latency = pos })
        | None -> ())
    | Some _ | None -> ()
  done;
  let outs = record.Radiosim.Trace.outputs in
  for u = 0 to Array.length outs - 1 do
    outputs m ~round u outs.(u)
  done;
  Audit.round_end core ~round;
  m.after record

let finish m =
  if not m.finished then begin
    m.finished <- true;
    Audit.finish m.core
  end;
  Audit.report m.core

