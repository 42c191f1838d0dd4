let receiver () = Radiosim.Process.silent ()

let first_reception ~dual ~scheduler ~nodes ~receiver ~max_rounds =
  let env = Radiosim.Env.null ~name:"baseline" () in
  Localcast.Coverage.first_data ~receiver (fun ~stop ->
      Radiosim.Engine.run ~stop ~dual ~scheduler ~nodes ~env ~rounds:max_rounds ())
