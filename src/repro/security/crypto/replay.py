"""Sliding-window replay protection (the scheme of DTLS/IPsec)."""


class ReplayWindow:
    """Accepts each sequence number at most once, within a sliding window.

    Numbers more than ``window_size`` behind the highest seen are rejected
    outright (too old to track), duplicates inside the window are rejected,
    and the window slides forward with new maxima.
    """

    def __init__(self, window_size: int = 64) -> None:
        if window_size < 1:
            raise ValueError("window size must be >= 1")
        self.window_size = window_size
        self._max_seen = -1
        self._bitmap = 0  # bit i = (max_seen - i) was seen
        self.accepted = 0
        self.rejected = 0

    def check_and_update(self, seq: int) -> bool:
        """True if ``seq`` is fresh (and records it); False for replays."""
        if seq < 0:
            self.rejected += 1
            return False
        if seq > self._max_seen:
            shift = seq - self._max_seen
            # A jump of a whole window or more leaves only ``seq`` in it;
            # shifting by the jump would cost time and memory in its size.
            if shift >= self.window_size:
                self._bitmap = 1
            else:
                self._bitmap = ((self._bitmap << shift) | 1) & ((1 << self.window_size) - 1)
            self._max_seen = seq
            self.accepted += 1
            return True
        offset = self._max_seen - seq
        if offset >= self.window_size:
            self.rejected += 1
            return False
        if self._bitmap & (1 << offset):
            self.rejected += 1
            return False
        self._bitmap |= 1 << offset
        self.accepted += 1
        return True
