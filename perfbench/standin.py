"""OpenAI-compatible stand-in for the LLM and embedding endpoints.

Run as its own process on loopback::

    python3 perfbench/standin.py --root . --latency judge=2,generate=20,embed=3

It prints ``port N priority raised`` (or ``... priority default``) once it
listens, then serves until SIGINT or SIGTERM.

Each chat prompt is matched against the files in ``templates/`` to recover
the template id and its placeholder values; the reply then comes from the
``kgcqr.mocks`` rule table, and embeddings from ``kgcqr.mocks.mock_embed``,
so answers equal what ``--mock`` would give. A fixed latency is slept for
each kind of call. ``GET /stats`` returns the calls per kind, the texts
embedded, prompts no template matched and the peak number of requests in
flight; ``POST /stats/reset`` zeroes them.

Every response goes out in one write with Nagle off: a response written as
headers and body separately waits for the client's delayed ACK, which turns
a 1 ms injected latency into tens of milliseconds.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import string
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from gen import DIM

KIND_OF_TEMPLATE = {
    "filter": "judge",
    "generate": "generate",
    "kg_extract": "extraction",
    "ttr": "ttr",
    "hyde": "hyde",
}
KINDS = tuple(KIND_OF_TEMPLATE.values()) + ("embed",)


def template_patterns(templates_dir: Path) -> list[tuple[str, re.Pattern]]:
    """One anchored regex per template file; placeholders become named groups."""
    out = []
    for tid in KIND_OF_TEMPLATE:
        path = templates_dir / f"{tid}.txt"
        if not path.is_file():
            continue
        parts, seen = [], set()
        for literal, name, _, _ in string.Formatter().parse(path.read_text(encoding="utf-8")):
            parts.append(re.escape(literal))
            if name:
                parts.append(f"(?P={name})" if name in seen else f"(?P<{name}>.*?)")
                seen.add(name)
        out.append((tid, re.compile(r"\A" + "".join(parts) + r"\Z", re.DOTALL)))
    return out


class StandIn(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, addr, templates_dir: Path, latency_s: dict[str, float]):
        from kgcqr.mocks import default_mock_chat, mock_embed
        from kgcqr.providers import ChatRequest

        super().__init__(addr, Handler)
        self.patterns = template_patterns(templates_dir)
        self.chat = default_mock_chat().chat
        self.embed = lambda text: mock_embed(text, DIM)
        self.request_cls = ChatRequest
        self.latency_s = latency_s
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.calls = {k: 0 for k in KINDS}
            self.texts = 0
            self.unmatched = 0
            self.inflight = 0
            self.peak = 0

    def stats(self) -> dict:
        with self.lock:
            return {"calls": dict(self.calls), "texts": self.texts,
                    "unmatched": self.unmatched, "peak_inflight": self.peak}

    def answer_chat(self, content: str) -> tuple[str, str]:
        for tid, pattern in self.patterns:
            m = pattern.match(content)
            if m:
                req = self.request_cls("", content, meta={"template": tid, **m.groupdict()})
                return KIND_OF_TEMPLATE[tid], self.chat(req)
        with self.lock:
            self.unmatched += 1
        return "unmatched", content


class Handler(BaseHTTPRequestHandler):
    server: StandIn
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args) -> None:
        pass

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self) -> None:
        if self.path == "/stats":
            self._reply(200, self.server.stats())
        else:
            self._reply(404, {"error": "no such path"})

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length") or 0))
        if self.path == "/stats/reset":
            self.server.reset()
            self._reply(200, {})
            return
        srv = self.server
        with srv.lock:
            srv.inflight += 1
            srv.peak = max(srv.peak, srv.inflight)
        try:
            request = json.loads(body)
            if self.path.endswith("/chat/completions"):
                kind, text = srv.answer_chat(request["messages"][-1]["content"])
                payload = {"choices": [{"index": 0, "message": {"role": "assistant", "content": text}}]}
            elif self.path.endswith("/embeddings"):
                kind = "embed"
                texts = request["input"]
                payload = {"data": [
                    {"index": i, "embedding": srv.embed(t).values.tolist()} for i, t in enumerate(texts)
                ]}
                with srv.lock:
                    srv.texts += len(texts)
            else:
                self._reply(404, {"error": "no such path"})
                return
            with srv.lock:
                if kind in srv.calls:
                    srv.calls[kind] += 1
            time.sleep(srv.latency_s.get(kind, 0.0))
            self._reply(200, payload)
        finally:
            with srv.lock:
                srv.inflight -= 1


def raise_priority() -> bool:
    """Run the calling thread, and the threads it starts, ahead of kgcqr:
    the stand-in and the load generator stand for other machines, whose
    answers should not wait for CPU that kgcqr holds. Where raising the
    priority is not permitted, they run at the default; the return value
    says which, so that a run can report it."""
    try:
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), -10)
    except OSError:
        return False
    return True


def parse_latency(spec: str) -> dict[str, float]:
    out = {}
    for item in filter(None, spec.split(",")):
        kind, _, ms = item.partition("=")
        if kind not in KINDS:
            raise SystemExit(f"unknown call kind {kind!r} (choose from {KINDS})")
        out[kind] = float(ms) / 1000.0
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".", help="checkout root holding src/ and templates/")
    ap.add_argument("--latency", default="", help="kind=ms pairs, comma-separated")
    args = ap.parse_args()
    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    raised = raise_priority()
    srv = StandIn(("127.0.0.1", 0), root / "templates", parse_latency(args.latency))
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(target=srv.shutdown).start())
    print(f"port {srv.server_address[1]} priority {'raised' if raised else 'default'}", flush=True)
    try:
        srv.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        srv.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
