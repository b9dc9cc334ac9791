"""CABLE — the paper's primary contribution.

The pieces map one-to-one onto the paper's architecture section:

- :mod:`repro.core.signature` — §III-A signature extraction.
- :mod:`repro.core.hashtable` — §III-B the signature hash table.
- :mod:`repro.core.search` — §III-C pre-ranking + CBV greedy ranking.
- :mod:`repro.core.wmt` — §III-D the way-map table.
- :mod:`repro.core.payload` — §III-E wire format & bit accounting.
- :mod:`repro.core.encoder` — the home encoder / remote decoder pair.
- :mod:`repro.core.sync` — §III-F synchronization.
- :mod:`repro.core.evictbuf` — §IV-A eviction buffer & EvictSeq.
- :mod:`repro.core.noninclusive` — §IV-C non-inclusive extension.
- :mod:`repro.core.pipeline` — §IV-D search-pipeline latency model,
  the source of CABLE's Table IV compress/decompress cycles.
"""

from repro.core.config import CableConfig
from repro.core.signature import SignatureExtractor, H3Hash
from repro.core.hashtable import SignatureHashTable
from repro.core.wmt import WayMapTable
from repro.core.search import SearchPipeline, SearchResult
from repro.core.payload import Payload, PayloadKind
from repro.core.encoder import CableHomeEncoder, CableRemoteDecoder, CableLinkPair
from repro.core.evictbuf import EvictionBuffer
from repro.core.noninclusive import NonInclusivePair, NonInclusiveCableLink
from repro.core.pipeline import SearchPipelineModel, end_to_end_cycles

__all__ = [
    "CableConfig",
    "SignatureExtractor",
    "H3Hash",
    "SignatureHashTable",
    "WayMapTable",
    "SearchPipeline",
    "SearchResult",
    "Payload",
    "PayloadKind",
    "CableHomeEncoder",
    "CableRemoteDecoder",
    "CableLinkPair",
    "EvictionBuffer",
    "NonInclusivePair",
    "NonInclusiveCableLink",
    "SearchPipelineModel",
    "end_to_end_cycles",
]
