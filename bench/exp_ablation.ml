(* Experiment E10: the §4.2 closing-remark ablation.  Running seed
   agreement every k-th phase (with seeds sized for the whole cycle)
   leaves the worst-case bounds untouched but shifts the average-case
   cost: fewer preamble rounds per delivered message. *)

open Core
open Exp_common
module Geo = Dualgraph.Geometric
module Params = Localcast.Params
module L = Localcast
module Table = Stats.Table

let run () =
  section "E10: ablation — seed agreement frequency (§4.2 remark)";
  note
    "seed_refresh = k runs the SeedAlg preamble every k-th phase; the\n\
     other phases use their full length as extra body rounds.  Guarantees\n\
     must hold at every k; useful-round share and delivery rate improve.";
  let trials = trials_scaled 8 in
  let phases = 8 in
  let table =
    Table.create ~title:"E10: refresh period sweep (random field n=30, eps=0.1)"
      ~columns:
        [ "refresh"; "kappa bits"; "preamble share"; "progress freq";
          "reliability"; "acks/10k rounds" ]
  in
  List.iter
    (fun refresh ->
      let samples =
        run_trials ~salt:refresh ~n:trials (fun ~trial:_ ~seed ->
            let dual = random_field ~seed ~n:30 () in
            let params =
              Params.of_dual ~seed_refresh:refresh ~eps1:0.1 ~tack_phases:3 dual
            in
            let cycle = refresh * params.Params.phase_len in
            let share = float_of_int params.Params.ts /. float_of_int cycle in
            let report =
              run_lb_trial ~dual ~params ~senders:[ 0; 15 ]
                ~phases:(phases * refresh) ~seed ()
            in
            ( params.Params.seed.Params.kappa,
              share,
              report.L.Lb_spec.progress_opportunities,
              report.L.Lb_spec.progress_failures,
              report.L.Lb_spec.reliability_attempts,
              report.L.Lb_spec.reliability_failures,
              report.L.Lb_spec.ack_count,
              report.L.Lb_spec.rounds_observed ))
      in
      let opportunities = ref 0 and failures = ref 0 in
      let attempts = ref 0 and rel_failures = ref 0 in
      let acks = ref 0 and rounds_total = ref 0 in
      let kappa = ref 0 and preamble_share = ref 0.0 in
      List.iter
        (fun (k, share, opps, fails, atts, rfails, ack, rounds) ->
          kappa := k;
          preamble_share := share;
          opportunities := !opportunities + opps;
          failures := !failures + fails;
          attempts := !attempts + atts;
          rel_failures := !rel_failures + rfails;
          acks := !acks + ack;
          rounds_total := !rounds_total + rounds)
        samples;
      Table.add_row table
        [
          Table.cell_int refresh;
          Table.cell_int !kappa;
          Table.cell_rate !preamble_share;
          Table.cell_float ~decimals:4
            (1.0 -. (float_of_int !failures /. float_of_int (max 1 !opportunities)));
          Printf.sprintf "%d/%d" (!attempts - !rel_failures) !attempts;
          Table.cell_float
            (10_000.0 *. float_of_int !acks /. float_of_int (max 1 !rounds_total));
        ])
    (if !quick then [ 1; 4 ] else [ 1; 2; 4; 8 ]);
  Table.print table;
  note
    "Expected: preamble share falls as 1/k (amortized); progress and\n\
     reliability stay above 1 - eps; delivery throughput (acks per 10k\n\
     rounds) rises with k.  Cost: kappa (seed length) grows ~linearly.\n"
