type listen = Tcp of string * int | Unix_path of string

type config = {
  listen : listen;
  workers : int;
  queue_cap : int;
  max_inflight : int;
  read_timeout : float;
  write_timeout : float;
  max_frame : int;
  stop_after : int option;
}

let default_config listen =
  {
    listen;
    workers = 2;
    queue_cap = 64;
    max_inflight = 64;
    read_timeout = 5.;
    write_timeout = 5.;
    max_frame = Wire.default_max_frame;
    stop_after = None;
  }

type t = {
  config : config;
  handler : Handler.t;
  lfd : Unix.file_descr;
  queue : Unix.file_descr Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  stopping : bool Atomic.t;
  accept_done : bool Atomic.t;
  answered : int Atomic.t;
  inflight : int Atomic.t;
  mutable acceptor : unit Domain.t option;
  mutable domains : unit Domain.t list;
  on_drain : unit -> unit;
}

let sockaddr_of_listen = function
  | Tcp (host, port) -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
  | Unix_path path -> Unix.ADDR_UNIX path

let connect listen =
  let domain =
    match listen with Tcp _ -> Unix.PF_INET | Unix_path _ -> Unix.PF_UNIX
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr_of_listen listen)
   with e ->
     Unix.close fd;
     raise e);
  fd

let address t = Unix.getsockname t.lfd

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let write_quiet fd s = try Wire.write_all fd s with Unix.Unix_error _ -> ()

(* A response that terminates the conversation (shed, drain) gets a short
   grace period for the write, then the connection closes regardless. *)
let refuse fd response =
  write_quiet fd (Wire.encode_response response);
  close_quiet fd

let signal_stop t =
  Atomic.set t.stopping true;
  Mutex.lock t.qlock;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qlock

let count_answered t =
  let n = 1 + Atomic.fetch_and_add t.answered 1 in
  match t.config.stop_after with
  | Some limit when n >= limit -> signal_stop t
  | _ -> ()

(* --- per-connection serving ------------------------------------------- *)

type verdict = Keep | Close

let respond fd ~json response =
  let payload =
    if json then Wire.json_of_response response ^ "\n"
    else Wire.encode_response response
  in
  match Wire.write_all fd payload with
  | () -> true
  | exception Unix.Unix_error _ -> false

let serve_request t fd ~json req =
  if Atomic.get t.stopping then begin
    ignore
      (respond fd ~json
         (Wire.Error { code = Wire.Draining; message = "server draining" }));
    Close
  end
  else if 1 + Atomic.fetch_and_add t.inflight 1 > t.config.max_inflight then begin
    Atomic.decr t.inflight;
    Handler.note_shed t.handler Wire.Request;
    if respond fd ~json (Wire.Shed Wire.Request) then Keep else Close
  end
  else begin
    let response = Handler.handle t.handler req in
    Atomic.decr t.inflight;
    let ok = respond fd ~json response in
    count_answered t;
    if ok then Keep else Close
  end

let serve_http t fd path =
  let body =
    if path = "/metrics" then Some (Handler.metrics_body t.handler) else None
  in
  (match body with
  | Some body -> write_quiet fd (Wire.http_response ~status:200 ~body)
  | None ->
      write_quiet fd (Wire.http_response ~status:404 ~body:"not found\n"));
  count_answered t;
  (* HTTP keep-alive is deliberately unsupported: scrape, close. *)
  Close

let serve_connection t fd =
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.read_timeout;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.config.write_timeout
   with Unix.Unix_error _ -> ());
  let reader = Wire.reader fd in
  let rec loop () =
    if Atomic.get t.stopping then ()
    else
      let verdict =
        match Wire.next ~max_frame:t.config.max_frame reader with
        | Wire.Closed -> Close
        | Wire.Timed_out ->
            Handler.note_timeout t.handler;
            Close
        | Wire.Too_large ->
            Handler.note_malformed t.handler;
            ignore
              (respond fd ~json:false
                 (Wire.Error
                    { code = Wire.Frame_too_large; message = "frame too large" }));
            Close
        | Wire.Malformed e ->
            Handler.note_malformed t.handler;
            ignore
              (respond fd ~json:false
                 (Wire.Error { code = Wire.Bad_request; message = e }));
            Close
        | Wire.Json_malformed e ->
            (* The peer spoke JSON; a binary error frame would be garbage
               to it. *)
            Handler.note_malformed t.handler;
            ignore
              (respond fd ~json:true
                 (Wire.Error { code = Wire.Bad_request; message = e }));
            Close
        | Wire.Http_get path -> serve_http t fd path
        | Wire.Bin_request req -> serve_request t fd ~json:false req
        | Wire.Json_request req -> serve_request t fd ~json:true req
      in
      match verdict with Keep -> loop () | Close -> ()
  in
  loop ();
  close_quiet fd

(* --- worker / acceptor loops ------------------------------------------ *)

let pop t =
  Mutex.lock t.qlock;
  let rec wait () =
    if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else if Atomic.get t.stopping || Atomic.get t.accept_done then None
    else begin
      Condition.wait t.qcond t.qlock;
      wait ()
    end
  in
  let fd = wait () in
  Mutex.unlock t.qlock;
  fd

let worker t () =
  let rec loop () =
    match pop t with
    | None -> ()
    | Some fd ->
        (if Atomic.get t.stopping then
           (* Admitted but never served: answered explicitly, not dropped. *)
           refuse fd
             (Wire.Error { code = Wire.Draining; message = "server draining" })
         else serve_connection t fd);
        loop ()
  in
  loop ()

let acceptor t () =
  let rec loop () =
    if Atomic.get t.stopping then ()
    else begin
      (match Unix.select [ t.lfd ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.lfd with
          | exception Unix.Unix_error _ -> ()
          | fd, _ ->
              Handler.note_connection t.handler;
              Mutex.lock t.qlock;
              let full = Queue.length t.queue >= t.config.queue_cap in
              if not full then begin
                Queue.push fd t.queue;
                Condition.signal t.qcond
              end;
              Mutex.unlock t.qlock;
              if full then begin
                Handler.note_shed t.handler Wire.Connection;
                refuse fd (Wire.Shed Wire.Connection)
              end));
      loop ()
    end
  in
  loop ();
  Atomic.set t.accept_done true;
  Mutex.lock t.qlock;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qlock

(* --- lifecycle --------------------------------------------------------- *)

let start ?(on_drain = fun () -> ()) config handler =
  if config.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if config.queue_cap < 1 then invalid_arg "Server.start: queue_cap must be >= 1";
  if config.max_inflight < 0 then
    invalid_arg "Server.start: max_inflight must be >= 0";
  (match config.listen with
  | Tcp (_, port) when port < 0 || port > 65535 ->
      invalid_arg "Server.start: TCP port must lie in 0..65535"
  | Tcp _ | Unix_path _ -> ());
  (match config.stop_after with
  | Some n when n < 1 -> invalid_arg "Server.start: stop_after must be >= 1"
  | Some _ | None -> ());
  (* A peer closing mid-write must surface as EPIPE, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (match config.listen with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  let domain =
    match config.listen with
    | Tcp _ -> Unix.PF_INET
    | Unix_path _ -> Unix.PF_UNIX
  in
  let lfd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lfd Unix.SO_REUSEADDR true;
     Unix.bind lfd (sockaddr_of_listen config.listen);
     Unix.listen lfd (max 16 config.queue_cap)
   with e ->
     close_quiet lfd;
     raise e);
  let t =
    {
      config;
      handler;
      lfd;
      queue = Queue.create ();
      qlock = Mutex.create ();
      qcond = Condition.create ();
      stopping = Atomic.make false;
      accept_done = Atomic.make false;
      answered = Atomic.make 0;
      inflight = Atomic.make 0;
      acceptor = None;
      domains = [];
      on_drain;
    }
  in
  t.acceptor <- Some (Domain.spawn (acceptor t));
  t.domains <-
    List.init config.workers (fun _ -> Domain.spawn (worker t));
  t

let stop t = signal_stop t

let answered t = Atomic.get t.answered

let wait t =
  (match t.acceptor with
  | Some d ->
      Domain.join d;
      t.acceptor <- None
  | None -> ());
  List.iter Domain.join t.domains;
  t.domains <- [];
  (* Workers are gone; anything still queued was admitted but never
     picked up — refuse it explicitly rather than dropping silently. *)
  Mutex.lock t.qlock;
  let leftovers = Queue.fold (fun acc fd -> fd :: acc) [] t.queue in
  Queue.clear t.queue;
  Mutex.unlock t.qlock;
  List.iter
    (fun fd ->
      refuse fd
        (Wire.Error { code = Wire.Draining; message = "server draining" }))
    leftovers;
  close_quiet t.lfd;
  (match t.config.listen with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  t.on_drain ()
