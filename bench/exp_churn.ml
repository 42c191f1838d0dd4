(* Experiment E20: graceful degradation under crash/restart churn.

   One sender broadcasts once; every other node is subject to
   seed-derived churn (geometric crash times, fixed downtime, the sender
   protected).  Two strategies relay the message to the sender's reliable
   neighborhood over the same fault plans and link schedules:

   - LBAlg, whose acknowledgement discipline keeps the sender in its
     sending state for the whole Tack window — a receiver that was down
     when the message first went out can still catch it after its
     restart;
   - Decay with a fixed retransmission budget (one LBAlg phase of decay
     epochs, then silence): without acks a baseline must fix its relay
     effort a priori, so a receiver that spends that window down starves
     forever.

   Claims are survivor-relative, mirroring the Lb_spec accounting:
   "survivors" were alive for the entire run, "returners" crashed and
   restarted before the end.  The separation the table shows is the
   fault-tolerance dividend of the ack-driven window: LBAlg's returner
   coverage stays near the survivors' while Decay's collapses as the
   churn rate rises.

   Each LBAlg run is also replayed against the fault-aware stream
   auditor, which must report zero Late_ack/Missing_ack breaches —
   churn may cost coverage, never spec soundness.  The group fails
   after printing its table if the audit column is not 0. *)

open Core
open Exp_common
module Dual = Dualgraph.Dual
module Sch = Radiosim.Scheduler
module Engine = Radiosim.Engine
module M = Localcast.Messages
module Params = Localcast.Params
module Plan = Faults.Plan
module L = Localcast
module Table = Stats.Table

let sender = 0

(* First clean reception of the sender's message per node, under a
   Decay sender with a finite retransmission budget (silent from round
   [budget] on) and the given fault plan. *)
let decay_trial ~dual ~plan ~budget ~horizon ~seed =
  let n = Dual.n dual in
  let rng = Prng.Rng.of_int seed in
  let levels = Baseline.Strategy.levels_for ~delta':(Dual.delta' dual) in
  let nodes =
    Array.init n (fun v ->
        if v = sender then
          Baseline.Strategy.relay (Decay { levels })
            ~initial:(M.payload ~src:sender ~uid:0 ())
            ~budget ~rng:(Prng.Rng.split rng) ~node:v ()
        else Baseline.Harness.receiver ())
  in
  let cov = L.Coverage.create ~n ~source:sender in
  let (_ : int) =
    Engine.run ~observer:(L.Coverage.observe cov) ~faults:plan
      ~revive:(fun ~node:_ ~round:_ -> Baseline.Harness.receiver ())
      ~dual
      ~scheduler:(Sch.bernoulli ~seed ~p:0.5)
      ~nodes
      ~env:(Radiosim.Env.null ~name:"e20" ())
      ~rounds:horizon ()
  in
  fun v ->
    let first = cov.L.Coverage.first.(v) in
    if first = max_int then None else Some first

(* LBAlg one-shot under the same plan, with its first-reception tally.
   Also audits the run's event stream. *)
let lbalg_trial ~dual ~params ~plan ~horizon ~seed =
  let n = Dual.n dual in
  let sink = Obs.Sink.create ~capacity:(max 65536 (horizon * ((2 * n) + 16))) () in
  let auditor = L.Lb_obs.auditor ~dual ~params () in
  Obs.Sink.on_event sink (Obs.Audit.observe auditor);
  let _, cov, _ =
    L.Service.one_shot ~sink ~faults:plan ~dual ~params ~sender ~seed ()
  in
  Obs.Audit.finish auditor;
  let ack_breaches =
    List.length
      (List.filter
         (fun v ->
           match v.Obs.Audit.kind with
           | Obs.Audit.Late_ack _ | Obs.Audit.Missing_ack _ -> true
           | Obs.Audit.Progress_miss _ | Obs.Audit.Delta_breach _ -> false)
         (Obs.Audit.violations auditor))
  in
  let first = cov.L.Coverage.first in
  ((fun v -> if first.(v) = max_int then None else Some first.(v)), ack_breaches)

(* Per-trial accounting over the sender's reliable neighborhood, split
   into full-run survivors and crashed-but-restarted returners. *)
type tally = {
  mutable survivors : int;
  mutable survivors_covered : int;
  mutable returners : int;
  mutable returners_covered : int;
  mutable last_recv_sum : float;  (** per-trial last reception (or horizon) *)
  mutable trials : int;
}

let fresh_tally () =
  {
    survivors = 0;
    survivors_covered = 0;
    returners = 0;
    returners_covered = 0;
    last_recv_sum = 0.0;
    trials = 0;
  }

let tally_trial t ~dual ~plan ~horizon first_of =
  let last = ref 0 in
  Dual.iter_reliable_neighbors dual sender (fun v ->
      let survivor = Plan.alive_through plan ~node:v ~from:0 ~until:(horizon - 1) in
      let end_alive = Plan.alive plan ~node:v ~round:(horizon - 1) in
      if survivor || end_alive then begin
        let received = first_of v in
        if survivor then begin
          t.survivors <- t.survivors + 1;
          if received <> None then t.survivors_covered <- t.survivors_covered + 1
        end
        else begin
          t.returners <- t.returners + 1;
          if received <> None then t.returners_covered <- t.returners_covered + 1
        end;
        match received with
        | Some r -> if r > !last then last := r
        | None -> last := horizon
      end);
  t.last_recv_sum <- t.last_recv_sum +. float_of_int !last;
  t.trials <- t.trials + 1

let pct covered total =
  if total = 0 then "-"
  else Printf.sprintf "%.1f%%" (100.0 *. float_of_int covered /. float_of_int total)

let run () =
  section "E20: crash/restart churn — ack-driven recovery vs a fixed budget";
  let n = 36 in
  let dual = random_field ~seed:(master_seed + 20) ~n () in
  let params = Params.of_dual ~eps1:0.1 ~tack_phases:2 dual in
  let phase_len = params.Params.phase_len in
  let horizon = Params.t_ack_rounds params in
  let budget = phase_len in
  note
    "n=%d random field, sender %d (protected), one bcast at round 0.\n\
     Horizon t_ack = %d rounds; churned nodes restart after one phase\n\
     (%d rounds); Decay gets a %d-round retransmission budget.\n\
     'survivors' were up the whole run; 'returners' crashed and came back."
    (Dual.n dual) sender horizon phase_len budget;
  let trials = trials_scaled 10 in
  (* The hazard must be meaningful on the scale of the initial relay
     burst (a lone sender delivers to its up neighbors within a few
     rounds), so the sweep reaches into the percent-per-round regime. *)
  let rates = if !quick then [ 0.0; 0.02 ] else [ 0.0; 0.005; 0.02; 0.05 ] in
  let table =
    Table.create ~title:"E20: one-shot coverage under churn"
      ~columns:
        [ "rate"; "algorithm"; "survivors"; "returners"; "mean last recv";
          "audit breaches" ]
  in
  let total_breaches = ref 0 in
  List.iteri
    (fun i rate ->
      let plan_of seed =
        Plan.churn ~seed ~n:(Dual.n dual) ~rounds:horizon ~rate
          ~downtime:phase_len ~protect:[ sender ] ()
      in
      let lb = fresh_tally () and decay = fresh_tally () in
      let breaches = ref 0 in
      (* Same salt for both arms: paired fault plans and link schedules.
         Trials may run on several domains, so they only return their
         receptions; the tallies fold them in trial order. *)
      let samples =
        run_trials ~salt:(100 + i) ~n:trials (fun ~trial:_ ~seed ->
            let plan = plan_of seed in
            let first_lb, trial_breaches =
              lbalg_trial ~dual ~params ~plan ~horizon ~seed
            in
            let first_decay = decay_trial ~dual ~plan ~budget ~horizon ~seed in
            (plan, first_lb, trial_breaches, first_decay))
      in
      List.iter
        (fun (plan, first_lb, trial_breaches, first_decay) ->
          tally_trial lb ~dual ~plan ~horizon first_lb;
          breaches := !breaches + trial_breaches;
          tally_trial decay ~dual ~plan ~horizon first_decay)
        samples;
      total_breaches := !total_breaches + !breaches;
      let add_row name t audit =
        Table.add_row table
          [
            Printf.sprintf "%.4f" rate;
            name;
            pct t.survivors_covered t.survivors;
            pct t.returners_covered t.returners;
            Table.cell_float ~decimals:0 (t.last_recv_sum /. float_of_int t.trials);
            audit;
          ]
      in
      add_row "lbalg" lb (Printf.sprintf "%d" !breaches);
      add_row "decay (budget)" decay "-")
    rates;
  Table.print table;
  note
    "Expected: both algorithms cover every survivor at every rate.  The\n\
     returner columns separate them: LBAlg's sender is still broadcasting\n\
     when churned receivers come back, so returner coverage stays near\n\
     100%% and the survivor-relative ack window degrades gently; Decay's\n\
     budget is long spent, so its returner coverage (and with it the mean\n\
     last-reception round) collapses as the churn rate rises.  The audit\n\
     column must read 0: churn costs coverage, never a false Late_ack or\n\
     Missing_ack breach.\n";
  if !total_breaches > 0 then
    failwith
      (Printf.sprintf
         "E20: %d Late_ack/Missing_ack breaches in LBAlg's churn runs (the \
          audit column must read 0)"
         !total_breaches)
