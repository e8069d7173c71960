import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# a failing draw prints the @reproduce_failure line that replays it
settings.register_profile("clood", print_blob=True)
settings.load_profile("clood")
