"""The serving side of the benchmark: launching `emmark_cli serve` as a
child process, line and HTTP/1.1 clients, metrics scrapes, and /proc
readings of the server's processes."""
import os
import queue
import re
import signal
import socket
import subprocess
import threading
import time

IO_TIMEOUT_S = 60


class Server:
    """One `emmark_cli serve` child (plus its workers with --process-shards).

    Port and worker sockets are read from the server's stderr banner lines;
    every process it started is gone once stop() returns."""

    def __init__(self, cli, args, cwd, env, process_shards):
        self.proc = subprocess.Popen(
            [cli, "serve", "--port", "0", "--bind", "127.0.0.1"] + args,
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        self.port = None
        self.workers = {}  # shard -> (pid, socket path relative to cwd)
        self.log = queue.Queue()
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()
        want_workers = int(args[args.index("--shards") + 1]) if process_shards else 0
        deadline = time.monotonic() + 60
        seen = []
        while self.port is None or len(self.workers) < want_workers:
            try:
                line = self.log.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("server did not come up: " + "".join(seen[-5:]))
            seen.append(line)
            port = re.search(r"(?:listening on|supervisor on) [\d.]+:(\d+)", line)
            if port:
                self.port = int(port.group(1))
            worker = re.search(r"\[shard-worker (\d+)\] pid (\d+) listening on (\S+)", line)
            if worker:
                self.workers[int(worker.group(1))] = (int(worker.group(2)), worker.group(3))

    def _drain_stderr(self):
        for line in self.proc.stderr:
            if self.port is None or self.log.qsize() < 1000:
                self.log.put(line)
        self.log.put(None)  # EOF: the server exited

    def pids(self):
        """The server process and its live children (the shard workers)."""
        pids = [self.proc.pid]
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                stat = read_stat(int(entry))
                if stat and stat[1] == self.proc.pid:
                    pids.append(int(entry))
        return pids

    def stop(self):
        """Graceful SIGTERM (the server settles and reaps its workers), then
        SIGKILL for anything of its process group still running. Idempotent."""
        if self.proc.returncode is not None:
            return
        children = self.pids()[1:]
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)  # group leader alive: still ours
            self.proc.wait()
        for pid in children:
            wait_gone(pid)


def wait_gone(pid, timeout=10):
    """Waits for a worker to exit (a zombie counts), killing it after `timeout`."""
    deadline = time.monotonic() + timeout
    while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
        stat = read_stat(pid)
        if stat is None or stat[0] == "Z":
            return
        time.sleep(0.02)
    if os.path.exists(f"/proc/{pid}"):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


# --- /proc ------------------------------------------------------------------

CLK_TCK = os.sysconf("SC_CLK_TCK")


def read_stat(pid):
    """(state, ppid, cpu_seconds) of a process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1]), (int(fields[11]) + int(fields[12])) / CLK_TCK


def cpu_seconds(pids):
    return {pid: s[2] for pid in pids if (s := read_stat(pid))}


def vm_hwm_kib(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# --- clients ----------------------------------------------------------------

class LineClient:
    """The newline-delimited protocol over TCP or a Unix socket."""

    def __init__(self, port=None, unix_path=None):
        if unix_path:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.sock.connect(unix_path)
        else:
            self.sock = socket.create_connection(("127.0.0.1", port))
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(IO_TIMEOUT_S)
        self.buf = bytearray()

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def _fill(self):
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def recv_line(self):
        while (nl := self.buf.find(b"\n")) < 0:
            self._fill()
        line = self.buf[:nl].decode()
        del self.buf[:nl + 1]
        return line

    def request(self, entry):
        self.send(entry.line())
        return self.recv_line()

    def scrape(self):
        """One `metrics` exposition, parsed."""
        self.send("metrics")
        lines = []
        while (line := self.recv_line()) != "# EOF":
            lines.append(line)
        return parse_exposition(lines)

    def close(self):
        self.sock.close()


class HttpClient(LineClient):
    """HTTP/1.1 keep-alive `POST /v1/<verb>` on the supervisor's port."""

    def request(self, entry):
        body = entry.body().encode()
        self.sock.sendall(b"POST /v1/%s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%s"
                          % (entry.verb.encode(), len(body), body))
        while (end := self.buf.find(b"\r\n\r\n")) < 0:
            self._fill()
        head = self.buf[:end].decode()
        length = int(re.search(r"(?i)content-length:\s*(\d+)", head).group(1))
        while len(self.buf) < end + 4 + length:
            self._fill()
        reply = self.buf[end + 4:end + 4 + length].decode().strip()
        del self.buf[:end + 4 + length]
        return reply


# --- metrics exposition -------------------------------------------------------

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_exposition(lines):
    """{(name, labels-string): value} over every non-bucket sample."""
    out = {}
    for line in lines:
        m = _SAMPLE.match(line)
        if m and not m.group(1).endswith("_bucket"):
            out[(m.group(1), m.group(2) or "")] = float(m.group(3))
    return out


def total(scrape, name, label_filter=""):
    """Sum of every sample of `name` whose labels contain `label_filter`."""
    return sum(v for (n, labels), v in scrape.items() if n == name and label_filter in labels)


def delta(before, after, name, label_filter=""):
    return total(after, name, label_filter) - total(before, name, label_filter)


def mean_ms(before, after, hist, label_filter=""):
    """Mean of a seconds histogram between two scrapes, in ms."""
    count = delta(before, after, hist + "_count", label_filter)
    return 1e3 * delta(before, after, hist + "_sum", label_filter) / count if count else 0.0
