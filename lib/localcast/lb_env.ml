type entry = {
  node : int;
  payload : Messages.payload;
  bcast_round : int;
  mutable ack_round : int option;
  mutable recv_rounds : (int * int) list;
}

type t = {
  env : (Messages.lb_input, Messages.lb_output) Radiosim.Env.t;
  entries : entry list ref;
}

let env t = t.env

let log t = List.rev !(t.entries)

let find_in entries ~node payload =
  List.find_opt
    (fun e -> e.node = node && Messages.payload_equal e.payload payload)
    !entries

(* Shared machinery: [schedule.(v)] holds the round at which node [v]
   should next receive a bcast (if any); [notify] logs acks/recvs and, when
   [reissue] is set, schedules the next bcast one round after each ack. *)
let make ~name ~n ~initial ~reissue =
  let schedule = Array.make n None in
  let next_uid = Array.make n 0 in
  let entries = ref [] in
  List.iter (fun (node, round) -> schedule.(node) <- Some round) initial;
  let env =
    {
      Radiosim.Env.name;
          (* [inputs] consumes the schedule slot — a side effect. *)
          pure_inputs = false;
          inputs =
            (fun ~round ~node ->
              (* [r <= round], not [r = round]: a node that was dead (not
                 polled) at its scheduled round receives the bcast at the
                 first round it is alive again.  Without faults the two
                 are equivalent — inputs are polled every round. *)
              match schedule.(node) with
              | Some r when r <= round ->
                  schedule.(node) <- None;
                  let payload =
                    Messages.payload ~src:node ~uid:next_uid.(node) ()
                  in
                  next_uid.(node) <- next_uid.(node) + 1;
                  entries :=
                    {
                      node;
                      payload;
                      bcast_round = round;
                      ack_round = None;
                      recv_rounds = [];
                    }
                    :: !entries;
                  [ Messages.Bcast payload ]
              | _ -> []);
          notify =
            (fun ~round ~node outs ->
              List.iter
                (fun out ->
                  match out with
                  | Messages.Ack payload ->
                      (match find_in entries ~node payload with
                      | Some e -> e.ack_round <- Some round
                      | None -> ());
                      if reissue then schedule.(node) <- Some (round + 1)
                  | Messages.Recv payload ->
                      (match find_in entries ~node:payload.Messages.src payload with
                      | Some e -> e.recv_rounds <- (node, round) :: e.recv_rounds
                      | None -> ())
                  | Messages.Committed _ -> ())
                outs);
    }
  in
  { env; entries }

let saturate ?(start = 0) ~n ~senders () =
  make ~name:"saturate" ~n
    ~initial:(List.map (fun v -> (v, start)) senders)
    ~reissue:true

let one_shot ~n ~bcasts = make ~name:"one-shot" ~n ~initial:bcasts ~reissue:false
