let src = Logs.Src.create "wtcp.sim" ~doc:"Wireless-TCP simulator"

module Log = (val Logs.src_log src : Logs.LOG)

let set_level level =
  Logs.Src.set_level src level;
  if Logs.reporter () == Logs.nop_reporter then
    Logs.set_reporter (Logs.format_reporter ())

let rank = function
  | Logs.App -> 0
  | Logs.Error -> 1
  | Logs.Warning -> 2
  | Logs.Info -> 3
  | Logs.Debug -> 4

let enabled level =
  match Logs.Src.level src with
  | None -> false
  | Some threshold -> rank level <= rank threshold

let debug_enabled () = enabled Logs.Debug

(* The message string is only rendered when the level is enabled.  A
   disabled call still walks the format with [ikfprintf], which
   allocates a closure per argument, so per-packet callers check
   [debug_enabled] first. *)
let stamped level sim fmt =
  if not (enabled level) then Format.ikfprintf ignore Format.str_formatter fmt
  else
    Format.kasprintf
      (fun s ->
        Logs.msg ~src level (fun m ->
            m "[%a] %s" Simtime.pp (Simulator.now sim) s))
      fmt

let debug sim fmt = stamped Logs.Debug sim fmt
let info sim fmt = stamped Logs.Info sim fmt
