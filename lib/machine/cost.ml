type t = {
  call : int;
  fiber_switch : int;
  fiber_spawn : int;
  msg_inject : int;
  msg_per_hop : int;
  msg_per_word : int;
  msg_receive : int;
  mode_switch : int;
  cache_hit : int;
  cache_miss : int;
  coherence_per_hop : int;
  atomic : int;
  signal_deliver : int;
}

let software_messages =
  {
    call = 5;
    fiber_switch = 30;
    fiber_spawn = 80;
    msg_inject = 24;
    msg_per_hop = 6;
    msg_per_word = 2;
    msg_receive = 24;
    mode_switch = 150;
    cache_hit = 4;
    cache_miss = 40;
    coherence_per_hop = 5;
    atomic = 20;
    signal_deliver = 800;
  }

let hardware_messages =
  {
    software_messages with
    msg_inject = 4;
    msg_per_hop = 1;
    msg_per_word = 1;
    msg_receive = 4;
  }

let words_of_bytes n = (n + 7) / 8

let scale_messages c f =
  let s x = max 1 (int_of_float (Float.round (float_of_int x *. f))) in
  {
    c with
    msg_inject = s c.msg_inject;
    msg_per_hop = s c.msg_per_hop;
    msg_per_word = s c.msg_per_word;
    msg_receive = s c.msg_receive;
  }
