type t =
  | Null
  | Buf of Buffer.t
  | Chan of out_channel
  | Custom of (string -> unit)

let null = Null
let buffer () = Buf (Buffer.create 4096)
let of_channel oc = Chan oc
let custom f = Custom f

let write t s =
  match t with
  | Null -> ()
  | Buf b -> Buffer.add_string b s
  | Chan oc -> output_string oc s
  | Custom f -> f s

let buffer_of = function
  | Buf b -> Some b
  | Null | Chan _ | Custom _ -> None

let flush = function
  | Chan oc -> Stdlib.flush oc
  | Null | Buf _ | Custom _ -> ()

let contents = function
  | Buf b -> Some (Buffer.contents b)
  | Null | Chan _ | Custom _ -> None
