(* In-process dispatchers for the service tests.  Each dispatcher
   installs two process-global span sinks, and every span in the
   process pays for every installed sink, so tests close what they
   create. *)

module Dispatch = Skope_service.Dispatch

let with_dispatch ?config f =
  let d = Dispatch.create ?config () in
  Fun.protect ~finally:(fun () -> Dispatch.close d) (fun () -> f d)

(* One request body through [dispatch], or through a fresh dispatcher
   that is closed again afterwards. *)
let handle ?received_at ?dispatch body =
  match dispatch with
  | Some d -> Dispatch.handle ?received_at d body
  | None -> with_dispatch (fun d -> Dispatch.handle ?received_at d body)
