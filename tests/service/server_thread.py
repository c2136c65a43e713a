"""A ModelServer on its own event loop, for tests over real sockets."""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Optional

from repro.errors import ReproError
from repro.service.server import ModelServer


class ServerThread:
    """A ModelServer running its own event loop in a daemon thread.

    ``start()`` returns once the ephemeral port is bound; ``stop()``
    triggers the graceful drain and joins the thread.
    """

    def __init__(self, **server_kwargs) -> None:
        server_kwargs.setdefault("host", "127.0.0.1")
        server_kwargs.setdefault("port", 0)
        self.server = ModelServer(**server_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - surfaced in start/stop
            self._error = error

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.server.run()

    def start(self) -> "ServerThread":
        self._thread.start()
        # run() sets no explicit ready flag; poll for the bound port.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if self._error is not None:
                raise ReproError(f"server thread failed: {self._error}")
            if self.server.port != 0 and self.server._server is not None:
                return self
            time.sleep(0.005)
        raise ReproError("server thread did not come up within 10 s")

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout=10.0)
        if self._thread.is_alive():
            raise ReproError("server thread did not drain within 10 s")
        if self._error is not None:
            raise ReproError(f"server thread failed: {self._error}")
