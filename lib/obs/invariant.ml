exception Violation of { name : string; detail : string }

let fail ~name detail = raise (Violation { name; detail })

let to_string = function
  | Violation { name; detail } ->
    Some (Printf.sprintf "invariant violated: %s (%s)" name detail)
  | _ -> None

let () = Printexc.register_printer to_string
