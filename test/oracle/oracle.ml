module Dual = Dualgraph.Dual
module Env = Radiosim.Env
module Process = Radiosim.Process
module Scheduler = Radiosim.Scheduler
module Trace = Radiosim.Trace

(* For every listener, scan its topology neighborhood and apply the
   collision rule, querying the scheduler per (listener, incident edge).
   O(n·Δ') per round and allocating; kept verbatim as the executable
   reference semantics. *)
let run_reference ?observer ?stop ~dual ~scheduler ~nodes ~env ~rounds () =
  let n = Dual.n dual in
  if Array.length nodes <> n then
    invalid_arg "Oracle.run_reference: node array size differs from vertex count";
  if rounds < 0 then invalid_arg "Oracle.run_reference: negative round count";
  let executed = ref 0 in
  let continue = ref true in
  let round = ref 0 in
  while !continue && !round < rounds do
    let t = !round in
    let inputs = Array.init n (fun v -> env.Env.inputs ~round:t ~node:v) in
    let actions =
      Array.mapi (fun v node -> node.Process.decide ~round:t inputs.(v)) nodes
    in
    let delivered =
      Array.init n (fun u ->
          match actions.(u) with
          | Process.Transmit _ -> None
          | Process.Listen ->
              let heard = ref None in
              let collided = ref false in
              let consider v =
                match actions.(v) with
                | Process.Listen -> ()
                | Process.Transmit m -> (
                    match !heard with
                    | None -> heard := Some m
                    | Some _ -> collided := true)
              in
              Dual.iter_reliable_neighbors dual u consider;
              Dual.iter_unreliable_incident dual u (fun v edge ->
                  if Scheduler.active scheduler ~round:t ~edge then consider v);
              if !collided then None else !heard)
    in
    let outputs =
      Array.init n (fun v -> nodes.(v).Process.absorb ~round:t delivered.(v))
    in
    Array.iteri
      (fun v outs -> if outs <> [] then env.Env.notify ~round:t ~node:v outs)
      outputs;
    let record = { Trace.round = t; inputs; actions; delivered; outputs } in
    (match observer with Some f -> f record | None -> ());
    (match stop with Some p when p record -> continue := false | _ -> ());
    incr executed;
    incr round
  done;
  !executed

module Flood = struct
  module Mac = Localcast.Mac

  type result = {
    covered : bool array;
    covered_count : int;
    completion_round : int option;
    relays : int;
    rounds_executed : int;
  }

  let run ~params ~rng ~dual ~scheduler ~source ~max_rounds () =
    let flood_tag = 1 in
    let n = Dualgraph.Dual.n dual in
    if source < 0 || source >= n then invalid_arg "Flood.run: source out of range";
    let covered = Array.make n false in
    let relayed = Array.make n false in
    let covered_count = ref 0 in
    let completion_round = ref None in
    let relays = ref 0 in
    let mac = ref None in
    let cover ~round node =
      if not covered.(node) then begin
        covered.(node) <- true;
        incr covered_count;
        if !covered_count = n && !completion_round = None then
          completion_round := Some round
      end
    in
    let relay ~round:_ ~node =
      if not relayed.(node) then begin
        relayed.(node) <- true;
        match !mac with
        | Some mac ->
            if Mac.request mac ~node ~tag:flood_tag then incr relays
            else relayed.(node) <- false (* busy: retry on a later reception *)
        | None -> ()
      end
    in
    let callbacks =
      {
        Mac.on_recv =
          (fun ~node ~round payload ->
            if payload.Localcast.Messages.tag = flood_tag then begin
              cover ~round node;
              relay ~round ~node
            end);
        on_ack = (fun ~node:_ ~round:_ _ -> ());
      }
    in
    let m = Mac.create ~callbacks ~params ~rng ~dual () in
    mac := Some m;
    cover ~round:0 source;
    relayed.(source) <- true;
    if Mac.request m ~node:source ~tag:flood_tag then incr relays;
    let stop _record = !covered_count = n in
    let rounds_executed = Mac.run ~stop m ~scheduler ~rounds:max_rounds in
    {
      covered;
      covered_count = !covered_count;
      completion_round = !completion_round;
      relays = !relays;
      rounds_executed;
    }
end

module Flood_decay = struct
  module M = Localcast.Messages
  module P = Radiosim.Process

  type result = {
    covered : bool array;
    covered_count : int;
    completion_round : int option;
    rounds_executed : int;
  }

  let run ~rng ~dual ~scheduler ~source ~relay_epochs ~max_rounds () =
    let n = Dual.n dual in
    if source < 0 || source >= n then invalid_arg "Flood_decay.run: source out of range";
    if relay_epochs < 1 then invalid_arg "Flood_decay.run: relay_epochs must be >= 1";
    let levels = Baseline.Decay.levels_for ~delta':(Dual.delta' dual) in
    let relay_rounds = relay_epochs * levels in
    let covered = Array.make n false in
    let covered_count = ref 0 in
    let completion_round = ref None in
    let cover ~round v =
      if not covered.(v) then begin
        covered.(v) <- true;
        incr covered_count;
        if !covered_count = n && !completion_round = None then
          completion_round := Some round
      end
    in
    let node v =
      let node_rng = Prng.Rng.split rng in
      (* relay window: [start, start + relay_rounds), set on first coverage *)
      let relay_start = ref (if v = source then Some 0 else None) in
      let decide ~round _inputs =
        match !relay_start with
        | Some start when round >= start && round < start + relay_rounds ->
            let level = (round - start) mod levels in
            let p = 1.0 /. float_of_int (1 lsl (level + 1)) in
            if Prng.Rng.bernoulli node_rng p then
              P.Transmit (M.Data (M.payload ~src:v ~uid:0 ~tag:1 ()))
            else P.Listen
        | _ -> P.Listen
      in
      let absorb ~round received =
        (match received with
        | Some (M.Data _) ->
            cover ~round v;
            if !relay_start = None then relay_start := Some (round + 1)
        | Some (M.Seed_msg _) | None -> ());
        []
      in
      { P.decide; absorb }
    in
    cover ~round:0 source;
    let nodes = Array.init n node in
    let stop _ = !covered_count = n in
    let rounds_executed =
      Radiosim.Engine.run ~stop ~dual ~scheduler ~nodes
        ~env:(Radiosim.Env.null ~name:"flood-decay" ())
        ~rounds:max_rounds ()
    in
    {
      covered;
      covered_count = !covered_count;
      completion_round = !completion_round;
      rounds_executed;
    }
end

module Rng = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let mix_gamma z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
    let z = Int64.logxor z (Int64.shift_right_logical z 33) in
    Int64.logor z 1L

  let create seed = { state = seed }

  let next t =
    let s = Int64.add t.state golden_gamma in
    t.state <- s;
    mix s

  let split t =
    let s1 = next t in
    let s2 = next t in
    { state = Int64.logxor (mix s1) (mix_gamma s2) }

  let copy t = { state = t.state }

  let bits64 = next

  let bool t = Int64.logand (next t) 1L = 1L

  let bits t k =
    assert (k >= 0 && k <= 62);
    if k = 0 then 0
    else Int64.to_int (Int64.shift_right_logical (next t) (64 - k))

  let int t n =
    assert (n > 0);
    if n = 1 then 0
    else begin
      let k =
        let rec width k = if k >= 62 || 1 lsl k >= n then k else width (k + 1) in
        width 1
      in
      let rec draw () =
        let v = bits t k in
        if v < n then v else draw ()
      in
      draw ()
    end

  let int_in_range t ~min ~max =
    assert (min <= max);
    min + int t (max - min + 1)

  let float t x =
    let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
    x *. (v /. 9007199254740992.0)

  let bernoulli t p =
    if p <= 0.0 then false
    else if p >= 1.0 then true
    else float t 1.0 < p

  let geometric_trial t b =
    assert (b >= 0);
    let rec go remaining =
      if remaining = 0 then true
      else if bool t then false
      else go (remaining - 1)
    in
    go b

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done

  let scheduler_hash ~seed ~round ~edge =
    mix
      (Int64.add
         (Int64.mul (Int64.of_int round) 0x100000001B3L)
         (Int64.of_int ((edge * 2654435761) + seed)))

  let sparse_round_stream ~seed ~round =
    create
      (mix
         (Int64.add
            (Int64.mul (Int64.of_int round) 0x100000001B3L)
            (Int64.of_int seed)))

  let node_rng ~seed ~node ~round =
    let open Int64 in
    let key =
      add
        (add
           (mul (of_int seed) 0x9E3779B97F4A7C15L)
           (mul (of_int (node + 1)) 0xC2B2AE3D27D4EB4FL))
        (mul (of_int round) 0x165667B19E3779F9L)
    in
    create (mix key)

  let reviver_rng ~seed ~node ~round =
    create
      (mix
         (Int64.add
            (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
            (Int64.add
               (Int64.mul (Int64.of_int (node + 1)) 0xC2B2AE3D27D4EB4FL)
               (Int64.mul (Int64.of_int (round + 1)) 0x165667B19E3779F9L))))

  let churn_hash ~seed ~node =
    mix
      (Int64.add
         (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
         (Int64.mul (Int64.of_int (node + 1)) 0xC2B2AE3D27D4EB4FL))

  let workload_mix z =
    let z = (z lxor (z lsr 31)) * 0x2545F4914F6CDD1D in
    let z = (z lxor (z lsr 29)) * 0x3C6EF372FE94F82B in
    (z lxor (z lsr 32)) land max_int
end

(* Prng.Bitstring's draw loop and cursor takes, frozen as they stood
   before the bits were filled in one counter-mode loop and read as
   windows: one Rng.bool per bit, and one take_bit per bit consumed. *)
module Bitstring = struct
  module B = Prng.Bitstring

  let random rng k =
    assert (k >= 0);
    let bits = Bytes.make k '0' in
    for i = 0 to k - 1 do
      if Prng.Rng.bool rng then Bytes.set bits i '1'
    done;
    B.of_string (Bytes.to_string bits)

  let take_int c k =
    assert (k >= 0 && k <= 30);
    let rec go acc remaining =
      if remaining = 0 then acc
      else go ((acc lsl 1) lor (if B.take_bit c then 1 else 0)) (remaining - 1)
    in
    go 0 k

  let take_all_zero c k =
    let all_zero = ref true in
    for _ = 1 to k do
      if B.take_bit c then all_zero := false
    done;
    !all_zero
end

(* The record-fed LB(t_ack, t_prog, ε) monitor, frozen as it stood before
   the spec bookkeeping moved into the Obs.Audit core (with its fix for
   restarted senders): payload-keyed tables, liveness read from the
   fault plan, one pass per record section. *)
module Lb_spec = struct
  module M = Localcast.Messages
  module P = Localcast.Params

  type monitor = {
    dual : Dual.t;
    params : P.t;
    n : int;
    t_ack : int;
    faults : Faults.Plan.t option;
        (** survivor-relative accounting: claims are scoped to nodes alive
            for the full obligation window *)
    (* activity tracking *)
    active : M.payload option array;
    bcast_round : (M.payload, int) Hashtbl.t;
    receivers : (M.payload, (int, unit) Hashtbl.t) Hashtbl.t;
    (* per-phase progress tracking *)
    mutable active_all : bool array;  (** active in every round of this phase *)
    mutable first_reception : int array;
        (** offset of the first qualifying reception this phase, -1 if none *)
    (* accumulators *)
    mutable rounds_observed : int;
    mutable validity_violations : int;
    mutable ack_count : int;
    mutable late_ack_count : int;
    mutable max_ack_latency : int;
    mutable reliability_attempts : int;
    mutable reliability_failures : int;
    mutable progress_opportunities : int;
    mutable progress_failures : int;
    mutable progress_latencies_rev : int list;
    mutable finished : bool;
  }

  let monitor ?faults ~dual ~params () =
    let n = Dual.n dual in
    {
      dual;
      params;
      n;
      t_ack = P.t_ack_rounds params;
      faults;
      active = Array.make n None;
      bcast_round = Hashtbl.create 32;
      receivers = Hashtbl.create 32;
      active_all = Array.make n true;
      first_reception = Array.make n (-1);
      rounds_observed = 0;
      validity_violations = 0;
      ack_count = 0;
      late_ack_count = 0;
      max_ack_latency = 0;
      reliability_attempts = 0;
      reliability_failures = 0;
      progress_opportunities = 0;
      progress_failures = 0;
      progress_latencies_rev = [];
      finished = false;
    }

  (* Survivor predicate over an inclusive round window; everyone survives
     when no plan is attached. *)
  let survivor m ~node ~from ~until =
    match m.faults with
    | None -> true
    | Some plan -> Faults.Plan.alive_through plan ~node ~from ~until

  let close_phase m =
    (* Called right after the phase's last round was observed, so the phase
       covered rounds [rounds_observed - phase_len, rounds_observed - 1]. *)
    let phase_hi = m.rounds_observed - 1 in
    let phase_lo = m.rounds_observed - m.params.P.phase_len in
    for u = 0 to m.n - 1 do
      let opportunity =
        Dual.fold_reliable_neighbors m.dual u ~init:false ~f:(fun acc v ->
            acc || m.active_all.(v))
      in
      (* t_prog claims are survivor-relative: only receivers alive for the
         whole phase owe a reception (active_all already excludes senders
         that died mid-phase, via the per-round activity check). *)
      if opportunity && survivor m ~node:u ~from:phase_lo ~until:phase_hi
      then begin
        m.progress_opportunities <- m.progress_opportunities + 1;
        if m.first_reception.(u) < 0 then
          m.progress_failures <- m.progress_failures + 1
        else
          m.progress_latencies_rev <-
            m.first_reception.(u) :: m.progress_latencies_rev
      end
    done;
    Array.fill m.active_all 0 m.n true;
    Array.fill m.first_reception 0 m.n (-1)

  let observe m (record : (M.msg, M.lb_input, M.lb_output) Trace.round_record) =
    assert (not m.finished);
    let round = record.Trace.round in
    (* 1. bcast inputs make their node active from this round on. *)
    Array.iteri
      (fun u ins ->
        List.iter
          (fun (M.Bcast payload) ->
            m.active.(u) <- Some payload;
            Hashtbl.replace m.bcast_round payload round)
          ins)
      record.Trace.inputs;
    (* 2. clean receptions of data from an actively-broadcasting source are
       qualifying progress receptions. *)
    Array.iteri
      (fun u delivered ->
        match delivered with
        | Some (M.Data payload) -> (
            match m.active.(payload.M.src) with
            | Some active_payload
              when M.payload_equal active_payload payload ->
                if m.first_reception.(u) < 0 then
                  m.first_reception.(u) <-
                    round mod m.params.P.phase_len
            | _ -> ())
        | Some (M.Seed_msg _) | None -> ())
      record.Trace.delivered;
    (* 3a. recv outputs: validity + reliability bookkeeping. *)
    Array.iteri
      (fun u outs ->
        List.iter
          (fun out ->
            match out with
            | M.Recv payload ->
                let src = payload.M.src in
                let valid =
                  src <> u
                  && Dualgraph.Graph.mem_edge (Dual.g' m.dual) u src
                  && (match m.active.(src) with
                     | Some p -> M.payload_equal p payload
                     | None -> false)
                in
                if not valid then m.validity_violations <- m.validity_violations + 1;
                let set =
                  match Hashtbl.find_opt m.receivers payload with
                  | Some set -> set
                  | None ->
                      let set = Hashtbl.create 8 in
                      Hashtbl.add m.receivers payload set;
                      set
                in
                Hashtbl.replace set u ()
            | M.Ack _ | M.Committed _ -> ())
          outs)
      record.Trace.outputs;
    (* 3b. ack outputs: latency + reliability verdicts; the node stays
       active through the ack round itself. *)
    let acked = ref [] in
    Array.iteri
      (fun u outs ->
        List.iter
          (fun out ->
            match out with
            | M.Ack payload ->
                acked := u :: !acked;
                m.ack_count <- m.ack_count + 1;
                let b_opt = Hashtbl.find_opt m.bcast_round payload in
                (match b_opt with
                | Some b ->
                    let latency = round - b in
                    if latency > m.max_ack_latency then m.max_ack_latency <- latency;
                    (* A sender that was down inside [b, round] owes no
                       timeliness claim for this bcast. *)
                    if latency > m.t_ack && survivor m ~node:u ~from:b ~until:round
                    then m.late_ack_count <- m.late_ack_count + 1;
                    Hashtbl.remove m.bcast_round payload
                | None -> ());
                m.reliability_attempts <- m.reliability_attempts + 1;
                let received_by =
                  match Hashtbl.find_opt m.receivers payload with
                  | Some set -> set
                  | None -> Hashtbl.create 1
                in
                (* Reliability is owed to the neighbors alive for the whole
                   [bcast, ack] window; the dead owe and are owed nothing. *)
                let from = match b_opt with Some b -> b | None -> round in
                let all_neighbors_got_it =
                  Dual.fold_reliable_neighbors m.dual u ~init:true ~f:(fun acc v ->
                      acc
                      && ((not (survivor m ~node:v ~from ~until:round))
                         || Hashtbl.mem received_by v))
                in
                if not all_neighbors_got_it then
                  m.reliability_failures <- m.reliability_failures + 1
            | M.Recv _ | M.Committed _ -> ())
          outs)
      record.Trace.outputs;
    (* 4. progress: a node must be active (and alive) in every round of the
       phase.  A dead node stops broadcasting for good: the process a
       restart brings back never received the bcast. *)
    for v = 0 to m.n - 1 do
      if m.active.(v) = None then m.active_all.(v) <- false
    done;
    (match m.faults with
    | None -> ()
    | Some plan ->
        for v = 0 to m.n - 1 do
          if not (Faults.Plan.alive plan ~node:v ~round) then begin
            m.active_all.(v) <- false;
            m.active.(v) <- None
          end
        done);
    (* 5. acked senders stop being active after this round. *)
    List.iter (fun u -> m.active.(u) <- None) !acked;
    m.rounds_observed <- m.rounds_observed + 1;
    if m.rounds_observed mod m.params.P.phase_len = 0 then close_phase m

  let finish m =
    if not m.finished then begin
      m.finished <- true
      (* A trailing partial phase carries no progress obligations; pending
         acks are judged against the rounds that actually elapsed. *)
    end;
    let missing_ack_count =
      Hashtbl.fold
        (fun payload b acc ->
          (* The obligation window is [b, b + t_ack] (clipped to the run);
             a sender down anywhere inside it is exempt. *)
          let deadline = min (m.rounds_observed - 1) (b + m.t_ack) in
          if
            m.rounds_observed - b > m.t_ack
            && survivor m ~node:payload.M.src ~from:b ~until:deadline
          then acc + 1
          else acc)
        m.bcast_round 0
    in
    {
      Localcast.Lb_spec.rounds_observed = m.rounds_observed;
      validity_violations = m.validity_violations;
      ack_count = m.ack_count;
      late_ack_count = m.late_ack_count;
      missing_ack_count;
      max_ack_latency = m.max_ack_latency;
      reliability_attempts = m.reliability_attempts;
      reliability_failures = m.reliability_failures;
      progress_opportunities = m.progress_opportunities;
      progress_failures = m.progress_failures;
      progress_latencies = List.rev m.progress_latencies_rev;
    }
end
