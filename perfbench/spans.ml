(* In-memory spans recorded around the benchmark's calls into each layer.

   A span has a name, the layer it is charged to, the operation (spec) it
   belongs to, a parent and its start/end.  Spans nest; a layer's self
   time is the sum over its spans of duration minus the part covered by
   child spans.  Nothing is written until [write] at the end of the run. *)

type span = {
  id : int;
  parent : int;  (** 0 = top level *)
  name : string;
  layer : string;
  op : string;
  t0 : float;
  t1 : float;
}

let on = ref false
let next_id = ref 0
let finished : span list ref = ref []
let open_ : int list ref = ref []

let with_ ~layer ~op name f =
  if not !on then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !open_ with p :: _ -> p | [] -> 0 in
    open_ := id :: !open_;
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        open_ := List.tl !open_;
        finished := { id; parent; name; layer; op; t0; t1 } :: !finished)
  end

let all () = List.rev !finished

(* Self seconds summed under [key span]. *)
let self_by key spans =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent) in
        Hashtbl.replace covered s.parent (prev +. (s.t1 -. s.t0)))
    spans;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id) in
      let k = key s in
      Hashtbl.replace tbl k (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)))
    spans;
  tbl

let layer_self spans = self_by (fun s -> s.layer) spans
let name_self spans = self_by (fun s -> s.layer ^ "/" ^ s.name) spans

(* Seconds spent in spans called [name], each counted whole. *)
let total ~name spans =
  List.fold_left (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc) 0.0 spans

let write ~path ~origin spans =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"layer\":\"%s\",\"op\":\"%s\",\
         \"start_s\":%.6f,\"end_s\":%.6f}\n"
        (if i = 0 then "" else ",")
        s.id s.parent s.name s.layer s.op (s.t0 -. origin) (s.t1 -. origin))
    spans;
  output_string oc "]\n";
  close_out oc
