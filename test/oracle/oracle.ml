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

(* The five spec parsers as they stood before they shared one grammar.
   Reception's record is private, so the frozen parser collects the keys
   in a local record and builds the model through [Reception.sinr],
   whose Invalid_argument text is [validate_sinr]'s error. *)
module Spec = struct
  module Reception = Radiosim.Reception
  module Plan = Faults.Plan
  module Workload = Macapps.Workload
  module Strategy = Baseline.Strategy

  type sinr = {
    alpha : float;
    beta : float;
    noise : float;
    power : float;
    jam : float;
    near : int;
  }

  let reception spec =
    let spec = String.trim spec in
    match String.lowercase_ascii spec with
    | "dual" | "dual-graph" -> Ok Reception.Dual_graph
    | "sinr" -> Ok (Reception.sinr ())
    | _ ->
        let prefix = "sinr:" in
        let plen = String.length prefix in
        if
          String.length spec < plen
          || not (String.equal (String.lowercase_ascii (String.sub spec 0 plen)) prefix)
        then
          Error
            (Printf.sprintf
               "Reception: bad spec %S (expected 'dual', 'sinr' or \
                'sinr:key=value,...')"
               spec)
        else begin
          let body = String.sub spec plen (String.length spec - plen) in
          let kvs = String.split_on_char ',' body in
          let parse acc kv =
            let ( let* ) = Result.bind in
            let* acc = acc in
            match String.split_on_char '=' (String.trim kv) with
            | [ key; value ] -> (
                let key = String.lowercase_ascii (String.trim key) in
                let value = String.trim value in
                let float_v () =
                  match float_of_string_opt value with
                  | Some f -> Ok f
                  | None ->
                      Error
                        (Printf.sprintf "Reception: %s=%S is not a number" key
                           value)
                in
                match key with
                | "alpha" ->
                    let* v = float_v () in
                    Ok { acc with alpha = v }
                | "beta" ->
                    let* v = float_v () in
                    Ok { acc with beta = v }
                | "noise" ->
                    let* v = float_v () in
                    Ok { acc with noise = v }
                | "power" ->
                    let* v = float_v () in
                    Ok { acc with power = v }
                | "jam" ->
                    let* v = float_v () in
                    Ok { acc with jam = v }
                | "near" -> (
                    match int_of_string_opt value with
                    | Some i -> Ok { acc with near = i }
                    | None ->
                        Error
                          (Printf.sprintf "Reception: near=%S is not an integer"
                             value))
                | _ ->
                    Error
                      (Printf.sprintf
                         "Reception: unknown key %S (expected alpha, beta, \
                          noise, power, jam or near)"
                         key))
            | _ ->
                Error
                  (Printf.sprintf "Reception: malformed clause %S (expected \
                                   key=value)"
                     kv)
          in
          let defaults =
            { alpha = 3.0; beta = 1.5; noise = 0.01; power = 1.0; jam = 1000.0; near = 2 }
          in
          match List.fold_left parse (Ok defaults) kvs with
          | Error _ as e -> e
          | Ok { alpha; beta; noise; power; jam; near } -> (
              match Reception.sinr ~alpha ~beta ~noise ~power ~jam ~near () with
              | m -> Ok m
              | exception Invalid_argument e -> Error e)
        end

  let faults ~seed ~n ~rounds spec =
    let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
    let int_of s = int_of_string_opt (String.trim s) in
    let clauses =
      String.split_on_char ';' spec
      |> List.map String.trim
      |> List.filter (fun c -> c <> "")
    in
    let rec parse clauses crashes restarts jams churn_clause =
      match clauses with
      | [] -> Ok (crashes, restarts, jams, churn_clause)
      | clause :: rest -> (
          match String.index_opt clause ':' with
          | None -> fail "clause %S: expected KIND:ARGS" clause
          | Some i -> (
              let kind = String.trim (String.sub clause 0 i) in
              let args =
                String.sub clause (i + 1) (String.length clause - i - 1)
              in
              let node_at () =
                match String.split_on_char '@' args with
                | [ v; r ] -> (
                    match (int_of v, int_of r) with
                    | Some v, Some r -> Ok (v, r)
                    | _ -> fail "clause %S: expected NODE@ROUND" clause)
                | _ -> fail "clause %S: expected NODE@ROUND" clause
              in
              match kind with
              | "crash" -> (
                  match node_at () with
                  | Ok c -> parse rest (c :: crashes) restarts jams churn_clause
                  | Error e -> Error e)
              | "restart" -> (
                  match node_at () with
                  | Ok r -> parse rest crashes (r :: restarts) jams churn_clause
                  | Error e -> Error e)
              | "jam" -> (
                  match String.split_on_char '@' args with
                  | [ v; window ] -> (
                      match (int_of v, String.split_on_char '-' window) with
                      | Some v, [ f; u ] -> (
                          match (int_of f, int_of u) with
                          | Some f, Some u ->
                              parse rest crashes restarts ((v, f, u) :: jams)
                                churn_clause
                          | _ -> fail "clause %S: expected NODE@FROM-UNTIL" clause)
                      | _ -> fail "clause %S: expected NODE@FROM-UNTIL" clause)
                  | _ -> fail "clause %S: expected NODE@FROM-UNTIL" clause)
              | "churn" -> (
                  if churn_clause <> None then
                    fail "clause %S: duplicate churn clause" clause
                  else
                    match String.split_on_char ',' args with
                    | [ rate ] -> (
                        match float_of_string_opt (String.trim rate) with
                        | Some rate when rate >= 0.0 && rate < 1.0 ->
                            parse rest crashes restarts jams (Some (rate, None))
                        | _ -> fail "clause %S: expected RATE in [0,1)" clause)
                    | [ rate; down ] -> (
                        match
                          (float_of_string_opt (String.trim rate), int_of down)
                        with
                        | Some rate, Some d when rate >= 0.0 && rate < 1.0 && d > 0
                          ->
                            parse rest crashes restarts jams (Some (rate, Some d))
                        | _ -> fail "clause %S: expected RATE[,DOWNTIME]" clause)
                    | _ -> fail "clause %S: expected RATE[,DOWNTIME]" clause)
              | _ -> fail "clause %S: unknown kind %S" clause kind))
    in
    match parse clauses [] [] [] None with
    | Error e -> Error e
    | Ok (crashes, restarts, jams, churn_clause) -> (
        try
          let base =
            match churn_clause with
            | None -> Plan.empty ~n
            | Some (rate, downtime) ->
                (* explicit crash clauses take precedence over churn draws *)
                let protect = List.map fst crashes in
                Plan.churn ~seed ~n ~rounds ~rate ?downtime ~protect ()
          in
          let crashes =
            List.fold_left
              (fun acc v ->
                match Plan.crash_round base v with
                | Some r -> (v, r) :: acc
                | None -> acc)
              crashes
              (List.init n (fun v -> v))
          and restarts =
            List.fold_left
              (fun acc v ->
                match Plan.restart_round base v with
                | Some r -> (v, r) :: acc
                | None -> acc)
              restarts
              (List.init n (fun v -> v))
          in
          Ok (Plan.make ~n ~crashes ~restarts ~jams ())
        with Invalid_argument msg -> Error msg)

  let process_error : Workload.process -> string option = function
    | Poisson { rate } | Bursty { rate; _ } | Hotspot { rate; _ }
      when not (Float.is_finite rate && rate >= 0.0) ->
        Some "rate must be finite and non-negative"
    | Bursty { on_mean; _ } when not (Float.is_finite on_mean && on_mean >= 1.0)
      ->
        Some "on_mean must be >= 1"
    | Bursty { off_mean; _ }
      when not (Float.is_finite off_mean && off_mean >= 1.0) ->
        Some "off_mean must be >= 1"
    | Hotspot { hot_fraction; _ }
      when not (hot_fraction >= 0.0 && hot_fraction <= 1.0) ->
        Some "hot_fraction outside [0, 1]"
    | Hotspot { hot_share; _ } when not (hot_share >= 0.0 && hot_share <= 1.0)
      ->
        Some "hot_share outside [0, 1]"
    | Batch { sources } when List.exists (fun s -> s < 0) sources ->
        Some "batch sources must be >= 0"
    | _ -> None

  let workload s : (Workload.process, string) result =
    let num tok =
      match float_of_string_opt tok with
      | Some v when Float.is_finite v -> Ok v
      | _ -> Error (Printf.sprintf "workload: bad number %S" tok)
    in
    let ( let* ) r f = Result.bind r f in
    let validated p =
      match process_error p with
      | None -> Ok p
      | Some msg -> Error ("workload: " ^ msg)
    in
    match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
    | [ "poisson"; r ] ->
        let* rate = num r in
        validated (Poisson { rate })
    | [ "bursty"; r; on; off ] ->
        let* rate = num r in
        let* on_mean = num on in
        let* off_mean = num off in
        validated (Bursty { rate; on_mean; off_mean })
    | [ "hotspot"; r; f; sh ] ->
        let* rate = num r in
        let* hot_fraction = num f in
        let* hot_share = num sh in
        validated (Hotspot { rate; hot_fraction; hot_share })
    | [ "batch"; list ] -> (
        match List.map int_of_string_opt (String.split_on_char ',' list) with
        | sources when List.mem None sources ->
            Error (Printf.sprintf "workload: bad batch sources %S" list)
        | sources -> validated (Batch { sources = List.filter_map Fun.id sources }))
    | _ ->
        Error
          (Printf.sprintf
             "workload: %S does not match poisson:RATE | \
              bursty:RATE:ON_MEAN:OFF_MEAN | hotspot:RATE:HOT_FRACTION:HOT_SHARE \
              | batch:S1,S2,..."
             s)

  let strategy spec : (Strategy.t, string) result =
    let fail () =
      Error
        (Printf.sprintf
           "bad strategy %S (expected fixed:P | decay:L | decay-restart:L | \
            sawtooth:L | backoff:K | slotted:N)"
           spec)
    in
    let checked t =
      match Strategy.validate t with Ok () -> Ok t | Error e -> Error e
    in
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

  let policy s : (Macapps.Serve.policy, string) result =
    match String.lowercase_ascii (String.trim s) with
    | "drop-tail" -> Ok Drop_tail
    | "drop-newest" -> Ok Drop_newest
    | "source-throttle" -> Ok Source_throttle
    | _ ->
        Error
          (Printf.sprintf
             "serve: %S is not drop-tail | drop-newest | source-throttle" s)
end

(* The listener-centric SINR evaluation.  Built from public inputs
   only (the embedding, r, the parameters, the field's column map), so
   it shares no state with the sparse kernels it checks.  The arithmetic
   and summation order are the frozen ones: band columns ascending, ids
   ascending within a column, the far row summed over every column
   ascending, the 1e-12 distance clamp. *)
module Sinr_dense = struct
  module Emb = Dualgraph.Embedding
  module Reception = Radiosim.Reception

  let min_d2 = 1e-12

  type t = {
    p : Reception.sinr;
    px : float array;
    py : float array;
    col : int array;
    ncols : int;
    neg_half_alpha : float;
    pw_far : float array;  (* power / (d * cell)^alpha; index 0 unused *)
    (* per-round state, rebuilt by load *)
    cnt : int array;
    off : int array;
    fill : int array;
    col_tx : int array;  (* column-major, ascending per column *)
  }

  let create ~params dual field =
    let emb =
      match Dual.embedding dual with
      | Some e -> e
      | None -> invalid_arg "Oracle.Sinr_dense.create: no embedding"
    in
    let n = Emb.n emb in
    let ncols = Radiosim.Sinr.cols field in
    let cell = Float.max (Dual.r dual) 1.0 in
    let pw_far = Array.make (max ncols 1) 0.0 in
    for d = 1 to ncols - 1 do
      pw_far.(d) <-
        params.Reception.power
        *. ((float_of_int d *. cell) ** -.params.Reception.alpha)
    done;
    {
      p = params;
      px = Array.init n (fun v -> (Emb.point emb v).Emb.x);
      py = Array.init n (fun v -> (Emb.point emb v).Emb.y);
      col = Array.init n (Radiosim.Sinr.column_of field);
      ncols;
      neg_half_alpha = -.params.Reception.alpha /. 2.0;
      pw_far;
      cnt = Array.make ncols 0;
      off = Array.make (ncols + 1) 0;
      fill = Array.make ncols 0;
      col_tx = Array.make (max n 1) 0;
    }

  let load t ~transmitters ~count =
    Array.fill t.cnt 0 t.ncols 0;
    for i = 0 to count - 1 do
      let c = t.col.(transmitters.(i)) in
      t.cnt.(c) <- t.cnt.(c) + 1
    done;
    for c = 0 to t.ncols - 1 do
      t.off.(c + 1) <- t.off.(c) + t.cnt.(c);
      t.fill.(c) <- t.off.(c)
    done;
    for i = 0 to count - 1 do
      let w = transmitters.(i) in
      let c = t.col.(w) in
      t.col_tx.(t.fill.(c)) <- w;
      t.fill.(c) <- t.fill.(c) + 1
    done

  let scan t listener =
    let cx = t.col.(listener) in
    let x = t.px.(listener) and y = t.py.(listener) in
    let near = t.p.Reception.near in
    let lo = max 0 (cx - near) and hi = min (t.ncols - 1) (cx + near) in
    let best = ref (-1) and best_pw = ref 0.0 and sum = ref 0.0 in
    for c = lo to hi do
      for idx = t.off.(c) to t.off.(c + 1) - 1 do
        let w = t.col_tx.(idx) in
        let dx = t.px.(w) -. x and dy = t.py.(w) -. y in
        let d2 = Float.max ((dx *. dx) +. (dy *. dy)) min_d2 in
        let pw = t.p.Reception.power *. (d2 ** t.neg_half_alpha) in
        sum := !sum +. pw;
        if pw > !best_pw then begin
          best_pw := pw;
          best := w
        end
      done
    done;
    (cx, !best, !best_pw, !sum)

  let far_row t column =
    let s = ref 0.0 in
    for j = 0 to t.ncols - 1 do
      let d = abs (j - column) in
      if d > t.p.Reception.near then
        s := !s +. (float_of_int t.cnt.(j) *. t.pw_far.(d))
    done;
    !s

  let noise_floor t ~jammed =
    t.p.Reception.noise +. if jammed then t.p.Reception.jam else 0.0

  let receive t ~jammed ~listener =
    let cx, best, best_pw, sum = scan t listener in
    if best < 0 then -1
    else begin
      let interference = sum -. best_pw +. far_row t cx +. noise_floor t ~jammed in
      if best_pw >= t.p.Reception.beta *. interference then best else -2
    end

  let diag t ~jammed ~listener =
    let cx, best, best_pw, sum = scan t listener in
    let far = far_row t cx in
    if best < 0 then (-1, 0.0, far +. noise_floor t ~jammed)
    else (best, best_pw, sum -. best_pw +. far +. noise_floor t ~jammed)
end

(* The engine's collision rule restated per transmitter: for a given
   transmitting set, the number of topology-neighbors of each node that
   transmit in [round], asking the scheduler per incident unreliable
   edge.  Moved out of Radiosim.Engine once the engine resolved a
   per-edge scheduler the same way. *)
let transmitter_counts ~dual ~scheduler ~round ~transmitting () =
  let n = Dual.n dual in
  if Array.length transmitting <> n then
    invalid_arg "Oracle.transmitter_counts: size mismatch";
  let counts = Array.make n 0 in
  let bump u = counts.(u) <- counts.(u) + 1 in
  for v = 0 to n - 1 do
    if transmitting.(v) then begin
      Dual.iter_reliable_neighbors dual v bump;
      Dual.iter_unreliable_incident dual v (fun u edge ->
          if Scheduler.active scheduler ~round ~edge then bump u)
    end
  done;
  counts

(* Lemma C.1's decomposition reconstructed from recorded LBAlg traces,
   as it stood in Localcast before it moved here: its only user was the
   test suite. *)
module Lb_probe = struct
  module Lb_alg = Localcast.Lb_alg
  module Messages = Localcast.Messages
  module Params = Localcast.Params

  type contention = {
    body_rounds : int;
    silent : int;
    single : int;
    collision : int;
  }

  let reception_rate c =
    if c.body_rounds = 0 then 0.0
    else float_of_int c.single /. float_of_int c.body_rounds

  let contention_profile ~dual ~scheduler ~params ~node trace =
    let body_rounds = ref 0 and silent = ref 0 and single = ref 0 in
    let collision = ref 0 in
    Trace.iter
      (fun record ->
        if not (Lb_alg.is_preamble_round params record.Trace.round) then begin
          incr body_rounds;
          let transmitting =
            Array.map
              (function Process.Transmit _ -> true | Process.Listen -> false)
              record.Trace.actions
          in
          let counts =
            transmitter_counts ~dual ~scheduler ~round:record.Trace.round
              ~transmitting ()
          in
          match counts.(node) with
          | 0 -> incr silent
          | 1 -> incr single
          | _ -> incr collision
        end)
      trace;
    {
      body_rounds = !body_rounds;
      silent = !silent;
      single = !single;
      collision = !collision;
    }

  let committed_owners ~params ~n ~phase trace =
    let owners = Array.make n None in
    let phase_len = params.Params.phase_len in
    Trace.iter
      (fun record ->
        if record.Trace.round / phase_len = phase then
          Array.iteri
            (fun v outs ->
              List.iter
                (fun out ->
                  match out with
                  | Messages.Committed { Messages.owner; _ } ->
                      owners.(v) <- Some owner
                  | Messages.Recv _ | Messages.Ack _ -> ())
                outs)
            record.Trace.outputs)
      trace;
    owners

  let groups_in_neighborhood ~dual ~owners ~node =
    let seen = Hashtbl.create 8 in
    let absorb v =
      match owners.(v) with
      | Some owner -> Hashtbl.replace seen owner ()
      | None -> ()
    in
    absorb node;
    Dual.iter_all_neighbors dual node absorb;
    Hashtbl.length seen
end

(* LBAlg's node, frozen as it stood while every node holding a committed
   seed walked its cursor in every body round, sending or not; an oracle
   node revived mid-cycle walks the cycle's earlier body rounds. *)
module Lb_alg = struct
  module Messages = Localcast.Messages
  module Params = Localcast.Params
  module Seed_core = Localcast.Seed_core

  type source = Src_agreement | Src_oracle of int64

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
    mutable core : Seed_core.t option;
    mutable cursor : Prng.Bitstring.cursor option;
    mutable pending_outputs : Messages.lb_output list;
  }

  let has_preamble params phase =
    params.Params.seed_refresh = 1 || phase mod params.Params.seed_refresh = 0

  let resolve_source = function
    | Localcast.Lb_alg.Agreement -> Src_agreement
    | Localcast.Lb_alg.Oracle shared ->
        Src_oracle (Prng.Rng.bits64 (Prng.Rng.copy shared))

  let oracle_seed state ~phase =
    match state.source with
    | Src_agreement -> assert false
    | Src_oracle base ->
        let derived =
          Prng.Rng.create (Prng.Rng.mix (Int64.add base (Int64.of_int phase)))
        in
        Prng.Bitstring.random derived state.params.Params.seed.Params.kappa

  let queue_output state out =
    state.pending_outputs <- out :: state.pending_outputs

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

  (* One body round's shared bits: [0] for a non-participant, else the
     probability level. *)
  let shared_level params cursor =
    let participant =
      Prng.Bitstring.take_all_zero cursor params.Params.participant_bits
    in
    if not participant then 0
    else if params.Params.level_bits = 0 then 1
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

  let body_action state =
    match state.cursor with
    | None -> Process.Listen
    | Some cursor -> (
        let b = shared_level state.params cursor in
        if b = 0 then Process.Listen
        else
          match state.mode with
          | Sending { message; _ } when Prng.Rng.geometric_trial state.rng b ->
              Process.Transmit (Messages.Data message)
          | Sending _ | Receiving -> Process.Listen)

  let decide state ~round inputs =
    let params = state.params in
    List.iter
      (function
        | Messages.Bcast m ->
            assert (state.pending = None && state.mode = Receiving);
            state.pending <- Some m)
      inputs;
    let phase_len = params.Params.phase_len in
    let phase = round / phase_len in
    let pos = round - (phase * phase_len) in
    let preamble = has_preamble params phase in
    if pos = 0 then begin
      (match (state.mode, state.pending) with
      | Receiving, Some m ->
          state.mode <-
            Sending { message = m; phases_left = params.Params.tack_phases };
          state.pending <- None
      | _ -> ());
      if preamble then begin
        state.cursor <- None;
        match state.source with
        | Src_agreement ->
            state.core <-
              Some (Seed_core.create params.Params.seed ~id:state.id ~rng:state.rng)
        | Src_oracle _ -> state.core <- None
      end
    end;
    if preamble && pos < params.Params.ts then
      match state.core with
      | Some core -> Seed_core.decide_action core ~local_round:pos
      | None -> Process.Listen
    else begin
      (match (state.source, state.core, state.cursor) with
      | Src_agreement, Some _, _ -> commit_seed state
      | Src_oracle _, _, None ->
          (* The cycle's seed, walked through the cycle's body rounds
             before this one, so a node revived mid-cycle reads what its
             group reads. *)
          let first = phase - (phase mod params.Params.seed_refresh) in
          let seed = oracle_seed state ~phase:first in
          let cursor = Prng.Bitstring.cursor seed in
          for _ = 1 to round - (first * phase_len) - params.Params.ts do
            ignore (shared_level params cursor : int)
          done;
          state.cursor <- Some cursor;
          queue_output state (Messages.Committed { Messages.owner = -1; seed })
      | (Src_agreement | Src_oracle _), _, _ -> ());
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
          Option.iter
            (fun core -> Seed_core.absorb core ~local_round:pos (Some msg))
            state.core
    | Some (Messages.Data m) ->
        if not (Hashtbl.mem state.seen m) then begin
          Hashtbl.add state.seen m ();
          queue_output state (Messages.Recv m)
        end
    | None ->
        if in_preamble then
          Option.iter
            (fun core -> Seed_core.absorb core ~local_round:pos None)
            state.core);
    (if pos = phase_len - 1 then
       match state.mode with
       | Sending s ->
           s.phases_left <- s.phases_left - 1;
           if s.phases_left = 0 then begin
             queue_output state (Messages.Ack s.message);
             state.mode <- Receiving
           end
       | Receiving -> ());
    let outs = List.rev state.pending_outputs in
    state.pending_outputs <- [];
    outs

  let node ?(seed_source = Localcast.Lb_alg.Agreement) params ~id ~rng =
    let state =
      {
        params;
        id;
        rng;
        source = resolve_source seed_source;
        seen = Hashtbl.create 32;
        mode = Receiving;
        pending = None;
        core = None;
        cursor = None;
        pending_outputs = [];
      }
    in
    {
      Process.decide = (fun ~round inputs -> decide state ~round inputs);
      absorb = (fun ~round received -> absorb state ~round received);
    }

  let network ?seed_source params ~rng ~n =
    Array.init n (fun id -> node ?seed_source params ~id ~rng:(Prng.Rng.split rng))
end

(* The randomness checks, as they stood in Stats before they moved
   here: their only user is the test suite. *)
module Hypothesis = struct
  let chi_square_statistic ~observed ~expected =
    if Array.length observed <> Array.length expected then
      invalid_arg "Hypothesis.chi_square_statistic: length mismatch";
    if Array.length observed = 0 then
      invalid_arg "Hypothesis.chi_square_statistic: empty";
    let acc = ref 0.0 in
    Array.iteri
      (fun i o ->
        let e = expected.(i) in
        if e <= 0.0 then invalid_arg "Hypothesis.chi_square_statistic: expected <= 0";
        let d = float_of_int o -. e in
        acc := !acc +. (d *. d /. e))
      observed;
    !acc

  let chi_square_uniform observed =
    let k = Array.length observed in
    if k = 0 then invalid_arg "Hypothesis.chi_square_uniform: empty";
    let total = Array.fold_left ( + ) 0 observed in
    let expected = Array.make k (float_of_int total /. float_of_int k) in
    chi_square_statistic ~observed ~expected

  let chi_square_critical ~df =
    if df < 1 then invalid_arg "Hypothesis.chi_square_critical: df must be >= 1";
    (* Wilson–Hilferty: X²_p(df) ≈ df · (1 - 2/(9 df) + z_p sqrt(2/(9 df)))³
       with z_0.99 = 2.326348. *)
    let dff = float_of_int df in
    let z = 2.326348 in
    let t = 1.0 -. (2.0 /. (9.0 *. dff)) +. (z *. sqrt (2.0 /. (9.0 *. dff))) in
    dff *. t *. t *. t

  let uniform_ok ?df observed =
    let df = match df with Some df -> df | None -> Array.length observed - 1 in
    chi_square_uniform observed <= chi_square_critical ~df

  let serial_correlation samples =
    let n = Array.length samples in
    if n < 3 then 0.0
    else begin
      let mean = Array.fold_left ( +. ) 0.0 samples /. float_of_int n in
      let num = ref 0.0 and den = ref 0.0 in
      for i = 0 to n - 2 do
        num := !num +. ((samples.(i) -. mean) *. (samples.(i + 1) -. mean))
      done;
      for i = 0 to n - 1 do
        den := !den +. ((samples.(i) -. mean) *. (samples.(i) -. mean))
      done;
      if !den = 0.0 then 0.0 else !num /. !den
    end
end
