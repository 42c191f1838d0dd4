(* Experiments E5-E7: the local broadcast service (Theorem 4.1, Lemma C.1).

   E5  progress: within each t_prog-round phase with an always-active
       reliable neighbor, a node receives something w.p. >= 1 - ε; t_prog
       scales as O(log Δ · polylog).
   E6  reliability & acknowledgement: a one-shot bcast reaches every
       reliable neighbor before the ack, within t_ack = O(Δ polylog).
   E7  per-round reception bound (Lemma C.1): in a body round,
       p_u >= c₂ / (r² log(1/ε₂) log Δ) and p_{u,v} >= p_u / Δ'. *)

open Core
open Exp_common
module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Params = Localcast.Params
module M = Localcast.Messages
module L = Localcast
module Table = Stats.Table

let e5 () =
  section "E5: progress bound t_prog (Theorem 4.1, Lemma C.2)";
  note
    "Saturated senders; every (receiver, phase) with a fully-active\n\
     reliable neighbor must hear something.  Failure frequency vs ε, and\n\
     t_prog growth vs Δ.";
  let trials = trials_scaled 10 in
  let phases = 6 in
  let table =
    Table.create ~title:"E5a: progress vs delta (eps=0.1, cliques, all-but-one send)"
      ~columns:
        [ "delta"; "t_prog"; "opportunities"; "failures"; "failure freq";
          "latency p50"; "latency p90" ]
  in
  List.iter
    (fun delta ->
      let dual = Geo.clique delta in
      let params = Params.of_dual ~eps1:0.1 ~tack_phases:2 dual in
      let samples =
        run_trials ~salt:delta ~n:trials (fun ~trial:_ ~seed ->
            let senders = List.init (delta - 1) (fun i -> i + 1) in
            let report = run_lb_trial ~dual ~params ~senders ~phases ~seed () in
            ( report.L.Lb_spec.progress_opportunities,
              report.L.Lb_spec.progress_failures,
              List.map float_of_int report.L.Lb_spec.progress_latencies ))
      in
      let opportunities = ref 0 and failures = ref 0 in
      let latencies = ref [] in
      List.iter
        (fun (opps, fails, lats) ->
          opportunities := !opportunities + opps;
          failures := !failures + fails;
          latencies := lats @ !latencies)
        samples;
      let latency_summary =
        if !latencies = [] then None else Some (Stats.Summary.of_list !latencies)
      in
      let cell f =
        match latency_summary with
        | Some s -> Table.cell_float ~decimals:0 (f s)
        | None -> "-"
      in
      Table.add_row table
        [
          Table.cell_int delta;
          Table.cell_int (Params.t_prog_rounds params);
          Table.cell_int !opportunities;
          Table.cell_int !failures;
          Table.cell_float ~decimals:4
            (float_of_int !failures /. float_of_int (max 1 !opportunities));
          cell (fun s -> s.Stats.Summary.median);
          cell (fun s -> s.Stats.Summary.p90);
        ])
    (if !quick then [ 4; 16 ] else [ 2; 4; 8; 16; 32 ]);
  Table.print table;
  let table_eps =
    Table.create ~title:"E5b: progress vs eps (random field n=40)"
      ~columns:[ "eps"; "t_prog"; "opportunities"; "failures"; "failure freq" ]
  in
  List.iter
    (fun eps1 ->
      (* Same salt across eps rows: each eps sees the same topologies and
         seeds, isolating the parameter effect. *)
      let samples =
        run_trials ~n:trials (fun ~trial:_ ~seed ->
            let dual = random_field ~seed ~n:40 () in
            let params = Params.of_dual ~eps1 ~tack_phases:2 dual in
            let report =
              run_lb_trial ~dual ~params ~senders:[ 0; 13; 26 ] ~phases ~seed ()
            in
            ( Params.t_prog_rounds params,
              report.L.Lb_spec.progress_opportunities,
              report.L.Lb_spec.progress_failures ))
      in
      let opportunities = ref 0 and failures = ref 0 in
      let t_prog = ref 0 in
      List.iter
        (fun (tp, opps, fails) ->
          t_prog := tp;
          opportunities := !opportunities + opps;
          failures := !failures + fails)
        samples;
      Table.add_row table_eps
        [
          Table.cell_float ~decimals:3 eps1;
          Table.cell_int !t_prog;
          Table.cell_int !opportunities;
          Table.cell_int !failures;
          Table.cell_float ~decimals:4
            (float_of_int !failures /. float_of_int (max 1 !opportunities));
        ])
    (if !quick then [ 0.2; 0.05 ] else [ 0.25; 0.1; 0.05 ]);
  Table.print table_eps;
  note "Expected: failure frequency <= eps in every row; t_prog grows ~log Δ.\n"

let e6 () =
  section "E6: reliability and acknowledgement bound t_ack (Theorem 4.1, Lemma C.3)";
  note
    "One-shot bcast from node 0 with the fully derived Tack; every\n\
     reliable neighbor must recv before the ack.  'completion' is the\n\
     round the last neighbor got the message.";
  let trials = trials_scaled 8 in
  let table =
    Table.create ~title:"E6: reliability on cliques (eps=0.1)"
      ~columns:
        [ "delta"; "Tack phases"; "t_ack rounds"; "reliability"; "mean completion";
          "completion/t_ack" ]
  in
  List.iter
    (fun delta ->
      let dual = Geo.clique delta in
      let params = Params.of_dual ~eps1:0.1 dual in
      let samples =
        run_trials ~salt:delta ~n:trials (fun ~trial:_ ~seed ->
            let report, completion = run_reliability_trial ~dual ~params ~seed in
            ( report.L.Lb_spec.reliability_attempts,
              report.L.Lb_spec.reliability_failures,
              completion ))
      in
      let successes = ref 0 and attempts = ref 0 in
      let completions = ref [] in
      List.iter
        (fun (atts, fails, completion) ->
          attempts := !attempts + atts;
          successes := !successes + (atts - fails);
          match completion with
          | Some round -> completions := float_of_int round :: !completions
          | None -> ())
        samples;
      let t_ack = Params.t_ack_rounds params in
      let mean_completion =
        if !completions = [] then Float.nan else Stats.Summary.mean !completions
      in
      Table.add_row table
        [
          Table.cell_int delta;
          Table.cell_int params.Params.tack_phases;
          Table.cell_int t_ack;
          Printf.sprintf "%d/%d" !successes !attempts;
          Table.cell_float ~decimals:0 mean_completion;
          Table.cell_float ~decimals:3 (mean_completion /. float_of_int t_ack);
        ])
    (if !quick then [ 4; 8 ] else [ 2; 4; 8; 16 ]);
  Table.print table;
  note
    "Expected: reliability = 100%% of attempts; completion well inside\n\
     t_ack (the bound is worst-case over schedulers); t_ack grows ~Δ·polylog.\n"

(* E7: instrument per-round reception frequencies in body rounds. *)
let e7 () =
  section "E7: per-round reception probability (Lemma 4.2 / C.1)";
  note
    "Clique of Δ senders + one receiver u; count u's clean receptions per\n\
     body round and receptions from one fixed sender v.";
  let trials = trials_scaled 6 in
  let phases = 4 in
  let table =
    Table.create ~title:"E7: body-round reception frequency"
      ~columns:
        [ "delta"; "p_u measured"; "p_u bound"; "p_uv measured"; "p_u/delta'" ]
  in
  List.iter
    (fun delta ->
      let dual = Geo.clique (delta + 1) in
      (* node 0 receives; 1..delta send *)
      let params = Params.of_dual ~eps1:0.1 ~tack_phases:phases dual in
      (* The observer is trial-local: each trial counts into its own refs
         and returns the totals, so trials stay independent under
         --domains > 1. *)
      let samples =
        run_trials ~salt:delta ~n:trials (fun ~trial:_ ~seed ->
            let body_rounds = ref 0 and receptions = ref 0 and from_v = ref 0 in
            let observer record =
              if
                (not
                   (L.Lb_alg.is_preamble_round params record.Radiosim.Trace.round))
                && record.Radiosim.Trace.round >= params.Params.ts
              then begin
                incr body_rounds;
                match record.Radiosim.Trace.delivered.(0) with
                | Some (M.Data p) ->
                    incr receptions;
                    if p.M.src = 1 then incr from_v
                | _ -> ()
              end
            in
            let senders = List.init delta (fun i -> i + 1) in
            let (_ : L.Lb_spec.report) =
              run_lb_trial ~observer ~dual ~params ~senders ~phases ~seed ()
            in
            (!body_rounds, !receptions, !from_v))
      in
      let body_rounds = ref 0 and receptions = ref 0 and from_v = ref 0 in
      List.iter
        (fun (b, r, f) ->
          body_rounds := !body_rounds + b;
          receptions := !receptions + r;
          from_v := !from_v + f)
        samples;
      let p_u = float_of_int !receptions /. float_of_int (max 1 !body_rounds) in
      let p_uv = float_of_int !from_v /. float_of_int (max 1 !body_rounds) in
      let log_inv2 = log (1.0 /. params.Params.eps2) /. log 2.0 in
      let r = Dual.r dual in
      let bound =
        params.Params.calibration.Params.c_pu
        /. (r *. r *. log_inv2 *. float_of_int params.Params.log_delta)
      in
      Table.add_row table
        [
          Table.cell_int delta;
          Table.cell_float ~decimals:4 p_u;
          Table.cell_float ~decimals:4 bound;
          Table.cell_float ~decimals:4 p_uv;
          Table.cell_float ~decimals:4 (p_u /. float_of_int (Dual.delta' dual));
        ])
    (if !quick then [ 4; 16 ] else [ 2; 4; 8; 16; 32 ]);
  Table.print table;
  note
    "Expected: measured p_u above the calibrated bound; measured p_{u,v}\n\
     above p_u/Δ' (the Δ' divisor is worst-case).\n"

let run () =
  e5 ();
  e6 ();
  e7 ()
