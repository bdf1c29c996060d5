"""Run the benchmark's set-up once in a fresh interpreter and print its
duration in seconds as one JSON object: {"setup_s": ...}.

    python3 perfbench/setup_once.py
"""

import json

from common import set_up

if __name__ == "__main__":
    print(json.dumps({"setup_s": set_up()[0]}))
