(* Tests for fiber priorities. *)

module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Runtime = Chorus.Runtime
module Runstats = Chorus.Runstats
module Fiber = Chorus.Fiber

let run ?(cores = 8) main =
  Runtime.run
    (Runtime.config ~policy:(Policy.round_robin ()) (Machine.mesh ~cores))
    main

let test_priority_jumps_queue () =
  let order = ref [] in
  let (_ : Runstats.t) =
    run ~cores:1 (fun () ->
        (* park everything behind main's segment, then observe order *)
        let tag t () = order := t :: !order in
        let _n1 = Fiber.spawn ~on:0 (tag "n1") in
        let _n2 = Fiber.spawn ~on:0 (tag "n2") in
        let _hi = Fiber.spawn ~on:0 ~priority:Fiber.High (tag "hi") in
        Fiber.sleep 100_000)
  in
  Alcotest.(check (list string)) "high priority ran first"
    [ "hi"; "n1"; "n2" ] (List.rev !order)

let () =
  Alcotest.run "chorus-par"
    [ ( "priority",
        [ Alcotest.test_case "jumps queue" `Quick test_priority_jumps_queue ] ) ]
