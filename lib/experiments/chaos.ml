open Topology

type spec = {
  index : int;
  seed : int;
  scenario : Scenario.t;
  plan : Faults.Plan.t;
  label : string;
}

type status =
  | Clean of { completed : bool }
  | Faulted of { violation : string option; rendered : string }
  | Uncaught of string

type run_result = {
  spec : spec;
  status : status;
  injected : (Error_model.Fault.kind * int) list;
  events_executed : int;
  throughput_bps : float;
}

(* The plan window approximates the clean transfer duration for each
   preset, so generated faults land while the transfer is live. *)
let wan_window = Sim_engine.Simtime.span_sec 60.0
let lan_window = Sim_engine.Simtime.span_sec 4.0
let lan_file_bytes = 262_144

let specs ?cc ~plans ~base_seed () =
  let schemes = Scenario.all_schemes in
  let n_schemes = List.length schemes in
  List.init plans (fun index ->
      let seed = base_seed + index in
      let scheme = List.nth schemes (index mod n_schemes) in
      let wan = index mod 2 = 0 in
      let scenario =
        if wan then Scenario.wan ~scheme ~seed ()
        else Scenario.lan ~scheme ~file_bytes:lan_file_bytes ~seed ()
      in
      let scenario =
        match cc with None -> scenario | Some cc -> Scenario.with_cc scenario cc
      in
      let window = if wan then wan_window else lan_window in
      let plan = Faults.Plan.generate ~seed ~window in
      let label =
        Printf.sprintf "%s/%s%s seed=%d"
          (if wan then "wan" else "lan")
          (Scenario.scheme_name scheme)
          (match cc with
          | None | Some Tcp_tahoe.Tcp_config.Tahoe -> ""
          | Some cc -> "/" ^ Tcp_tahoe.Tcp_config.cc_name cc)
          seed
      in
      { index; seed; scenario; plan; label })

let run_spec ~check spec =
  let obs =
    Obs.Config.{ check; trace = false; metrics = false }
  in
  match Wiring.run ~obs ~faults:spec.plan spec.scenario with
  | outcome ->
    let status =
      match outcome.Wiring.fault with
      | None -> Clean { completed = outcome.Wiring.completed }
      | Some report ->
        let violation =
          match report.Sim_engine.Simulator.error with
          | Obs.Invariant.Violation { name; _ } -> Some name
          | _ -> None
        in
        Faulted
          {
            violation;
            rendered =
              Printexc.to_string (Sim_engine.Simulator.Fault report);
          }
    in
    {
      spec;
      status;
      injected = Error_model.Fault.summarize outcome.Wiring.fault_events;
      events_executed = outcome.Wiring.events_executed;
      throughput_bps = Wiring.throughput_bps outcome;
    }
  | exception (Sim_engine.Simulator.Budget_exhausted _ as e) ->
    (* A deadline expiry must escape: the supervisor retries the cell
       at a relaxed budget tier, so swallowing it into [Uncaught] here
       would turn every deadline into a permanent campaign failure. *)
    raise e
  | exception exn ->
    {
      spec;
      status = Uncaught (Printexc.to_string exn);
      injected = [];
      events_executed = 0;
      throughput_bps = 0.0;
    }

(* ------------------------------------------------------------------ *)
(* Exact text codec                                                    *)
(* ------------------------------------------------------------------ *)

(* One campaign cell as a single line, used as the checkpoint payload
   by the supervised runner.  Free-text fields (rendered faults,
   uncaught messages, violation names) are percent-encoded so the
   line stays space-splittable; the throughput travels as its IEEE-754
   bit pattern so decode(encode r) = r exactly.  The spec itself is
   NOT part of the payload — campaigns regenerate specs
   deterministically from (plans, base_seed, cc), and the cache key
   already pins the full cell identity. *)

let encode_token s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '/' | '-' | '=' ->
        Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "%%%02x" (Char.code c)))
    s;
  Buffer.contents b

let decode_token s =
  let n = String.length s in
  let b = Buffer.create n in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> raise Exit
  in
  let rec go i =
    if i < n then
      if s.[i] = '%' && i + 2 < n then begin
        Buffer.add_char b (Char.chr ((hex s.[i + 1] * 16) + hex s.[i + 2]));
        go (i + 3)
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  match go 0 with
  | () -> Some (Buffer.contents b)
  | exception Exit -> None

let kind_of_name name =
  List.find_opt
    (fun k -> Error_model.Fault.kind_name k = name)
    Error_model.Fault.all_kinds

let result_to_string r =
  let status =
    match r.status with
    | Clean { completed = true } -> "C1"
    | Clean { completed = false } -> "C0"
    | Faulted { violation; rendered } ->
      Printf.sprintf "F %s %s"
        (match violation with None -> "-" | Some v -> encode_token v)
        (encode_token rendered)
    | Uncaught msg -> Printf.sprintf "U %s" (encode_token msg)
  in
  let injected =
    match r.injected with
    | [] -> "-"
    | l ->
      String.concat ","
        (List.map
           (fun (k, n) ->
             Printf.sprintf "%s:%d" (Error_model.Fault.kind_name k) n)
           l)
  in
  Printf.sprintf "c1 %d %Ld %s %s" r.events_executed
    (Int64.bits_of_float r.throughput_bps)
    injected status

let parse_injected inj =
  if inj = "-" then Some []
  else
    List.fold_right
      (fun part acc ->
        match acc with
        | None -> None
        | Some tl -> (
          match String.index_opt part ':' with
          | None -> None
          | Some i -> (
            let name = String.sub part 0 i in
            let count = String.sub part (i + 1) (String.length part - i - 1) in
            match (kind_of_name name, int_of_string_opt count) with
            | Some k, Some n -> Some ((k, n) :: tl)
            | _ -> None)))
      (String.split_on_char ',' inj)
      (Some [])

let result_of_string spec raw =
  let ( let* ) = Option.bind in
  match String.split_on_char ' ' raw with
  | "c1" :: ev :: tput :: inj :: status ->
    let* events_executed = int_of_string_opt ev in
    let* bits = Int64.of_string_opt tput in
    let* injected = parse_injected inj in
    let* status =
      match status with
      | [ "C1" ] -> Some (Clean { completed = true })
      | [ "C0" ] -> Some (Clean { completed = false })
      | [ "F"; viol; rendered ] ->
        let* rendered = decode_token rendered in
        let* violation =
          if viol = "-" then Some None
          else
            match decode_token viol with
            | Some v -> Some (Some v)
            | None -> None
        in
        Some (Faulted { violation; rendered })
      | [ "U"; msg ] ->
        let* msg = decode_token msg in
        Some (Uncaught msg)
      | _ -> None
    in
    Some
      {
        spec;
        status;
        injected;
        events_executed;
        throughput_bps = Int64.float_of_bits bits;
      }
  | _ -> None
