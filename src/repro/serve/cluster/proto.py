"""Control-plane grammar between supervisor and workers.

One stream-record channel (``CTRL``) carrying JSON objects — the
control plane moves a few small messages per second, so a readable
self-describing encoding beats packed structs; the data plane (serve
protocol, replica shipping) keeps its binary codecs. Messages ride
the same :func:`repro.link.wire.encode_stream_record` framing as
everything else, so both ends reuse ``FrameDecoder`` reassembly.

Worker → supervisor::

    ready      worker, serve_port, replica_port, pid
    heartbeat  worker, seq, sessions, shadows
    promoted   worker, victim, adopted, tags
    drained    worker, report, shipping, standby, obs

Supervisor → worker::

    buddy      peer, host, port     (re)point store shipping here
    promote    victim               adopt the dead sibling's shadows
    drain      —                    graceful drain, report, exit
    hang       —                    fault: stop reading + heartbeating
    slow       ms                   fault: stall the loop every beat
"""

from __future__ import annotations

import json
from typing import Dict

from repro.core.errors import CorruptPayloadError
from repro.link.wire import encode_stream_record

#: Stream-record channel of control messages (disjoint from the serve
#: protocol's 0x0x and the replica link's 0x2x).
CTRL = 0x31

#: Frame bound for control-plane decoders. Most messages are tiny,
#: but ``drained`` carries a whole worker report plus an obs snapshot
#: — it scales with metric cardinality and resident sessions, and at
#: soak scale (256 clients) it clears the 4KB stream default.
CTRL_MAX_FRAME_BYTES = 1 << 20


def encode_ctrl(message: Dict) -> bytes:
    payload = json.dumps(message, separators=(",", ":")).encode()
    return encode_stream_record(CTRL, payload, len(payload) * 8)


def decode_ctrl(payload: bytes) -> Dict:
    try:
        message = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptPayloadError(f"control message unparseable: {exc}") from exc
    if not isinstance(message, dict) or "kind" not in message:
        raise CorruptPayloadError("control message lacks a kind")
    return message
