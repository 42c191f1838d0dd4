(* Experiment OBS: the observability layer exercised end-to-end.

   One instrumented LB service run (saturated senders, random field)
   with the full pipeline attached — event sink, metrics registry,
   online spec auditor — then three checks with teeth:

   + the event-fed auditor's acknowledgement accounting must agree
     exactly with the record-fed Lb_spec monitor that watched the same
     run (ack count, max latency, and total t_ack deadline misses),
   + the auditor's progress-miss count must equal the monitor's
     progress-failure count,
   + the exported JSONL stream must parse back to exactly the events
     the sink retained.

   Both feeds drive the same Obs.Audit core, so the first two checks
   test the feeds: that the protocol events the sink received say what
   the round records said.  Any disagreement is a [failwith]: this group
   runs in quick mode under the bench-smoke alias, so CI fails if the
   two feeds ever drift apart.  The run also writes the BENCH_obs.json
   metrics artifact (a golden file: CI compares the regenerated
   snapshots with the committed ones) and the BENCH_obs_events.jsonl
   event stream — the files the worked example in docs/OBSERVABILITY.md
   walks through. *)

open Core
open Exp_common
module Dual = Dualgraph.Dual
module Params = Localcast.Params
module L = Localcast
module Table = Stats.Table

let count_kind violations pred =
  List.length (List.filter (fun v -> pred v.Obs.Audit.kind) violations)

let run () =
  section "OBS: observability layer (event stream, metrics, online audit)";
  note
    "One instrumented run: engine + LBAlg emit into a sink; the online\n\
     auditor's verdicts are cross-checked against the Lb_spec monitor.";
  let dual = random_field ~seed:(master_seed + 41) ~n:48 () in
  let params = Params.of_dual ~eps1:0.2 ~tack_phases:1 dual in
  let phases = if !quick then 3 else 5 in
  let rounds = phases * params.Params.phase_len in
  let n = Dual.n dual in
  (* Size the ring to the whole run so the JSONL export is the complete
     stream: per round at most n transmit/deliver/collision events plus
     the protocol events, bracketed by round_start/round_end. *)
  let capacity = max 65536 (rounds * (2 * n + 8)) in
  let sink = Obs.Sink.create ~capacity () in
  let metrics = Obs.Metrics.create () in
  let auditor = L.Lb_obs.auditor ~dual ~params () in
  Obs.Sink.on_event sink (Obs.Audit.observe auditor);
  let senders = [ 0; 1; 2; 3 ] in
  let outcome =
    L.Service.run ~sink ~metrics ~dual ~params ~senders ~phases
      ~seed:(master_seed + 42) ()
  in
  Obs.Audit.finish auditor;
  let report = outcome.L.Service.report in
  let violations = Obs.Audit.violations auditor in
  let audit_report = Obs.Audit.report auditor in
  let audit_acks = audit_report.Obs.Audit.ack_count in
  let audit_max_latency = audit_report.Obs.Audit.max_ack_latency in
  let audit_late =
    count_kind violations (function Obs.Audit.Late_ack _ -> true | _ -> false)
  in
  let audit_missing =
    count_kind violations (function
      | Obs.Audit.Missing_ack _ -> true
      | _ -> false)
  in
  let audit_progress_miss =
    count_kind violations (function
      | Obs.Audit.Progress_miss _ -> true
      | _ -> false)
  in
  let audit_delta =
    count_kind violations (function
      | Obs.Audit.Delta_breach _ -> true
      | _ -> false)
  in
  let table =
    Table.create
      ~title:"OBS: online auditor vs offline Lb_spec monitor (same run)"
      ~columns:[ "quantity"; "auditor"; "lb_spec" ]
  in
  let row name a b = Table.add_row table [ name; string_of_int a; string_of_int b ] in
  row "acks" audit_acks report.L.Lb_spec.ack_count;
  row "max ack latency" audit_max_latency report.L.Lb_spec.max_ack_latency;
  row "t_ack deadline misses" (audit_late + audit_missing)
    (report.L.Lb_spec.late_ack_count + report.L.Lb_spec.missing_ack_count);
  row "progress misses" audit_progress_miss report.L.Lb_spec.progress_failures;
  Table.add_row table
    [ "delta breaches"; string_of_int audit_delta; "-" ];
  Table.print table;
  if audit_acks <> report.L.Lb_spec.ack_count then
    failwith "exp_obs: auditor ack count disagrees with Lb_spec";
  if audit_max_latency <> report.L.Lb_spec.max_ack_latency then
    failwith "exp_obs: auditor max ack latency disagrees with Lb_spec";
  if
    audit_late + audit_missing
    <> report.L.Lb_spec.late_ack_count + report.L.Lb_spec.missing_ack_count
  then failwith "exp_obs: auditor deadline-miss count disagrees with Lb_spec";
  if audit_progress_miss <> report.L.Lb_spec.progress_failures then
    failwith "exp_obs: auditor progress misses disagree with Lb_spec";
  (* Artifacts: the per-phase metric snapshots and the raw event stream. *)
  let json_path = artifact_path "BENCH_obs.json" in
  Obs.Metrics.write_json ~path:json_path ~git_rev:(git_rev ())
    outcome.L.Service.obs_snapshots;
  let jsonl_path = artifact_path "BENCH_obs_events.jsonl" in
  Obs.Sink.save_jsonl sink ~path:jsonl_path;
  (* Round-trip the export: teeth for the JSONL schema. *)
  (match Obs.Sink.load_jsonl ~path:jsonl_path with
  | Error e -> failwith ("exp_obs: exported JSONL fails to parse back: " ^ e)
  | Ok events ->
      if List.length events <> Obs.Sink.length sink then
        failwith "exp_obs: JSONL round-trip lost events";
      List.iteri
        (fun i ev ->
          if not (Obs.Event.equal ev (Obs.Sink.get sink i)) then
            failwith "exp_obs: JSONL round-trip changed an event")
        events);
  if Obs.Sink.dropped sink > 0 then
    failwith "exp_obs: sink wrapped; capacity estimate too small";
  note
    "%d events emitted (%d retained), %d phase snapshots, %d violations; \
     wrote %s and %s (git rev %s)"
    (Obs.Sink.emitted sink) (Obs.Sink.length sink)
    (List.length outcome.L.Service.obs_snapshots)
    (List.length violations) json_path jsonl_path (git_rev ())
